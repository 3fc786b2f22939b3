package controller

import (
	"encoding/hex"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"jiffy/internal/codec"
	"jiffy/internal/core"
	"jiffy/internal/ds"
	"jiffy/internal/persist"
	"jiffy/internal/proto"
)

// TestReplOpGolden pins an op-log entry byte for byte: the node-upsert
// replOp that internal/rpc's TestWireGolden carries inside a
// CtrlReplicateReq.
func TestReplOpGolden(t *testing.T) {
	const golden = "0103016a00010000000edce5e80000000000ffff017401016a80a8d6b907010000000edce5e80000000000ffff030301200000010701610001001e00000000000000000000000000000000000000000000000000000000000000000000"
	at := time.Unix(1700000000, 0).UTC()
	op := replOp{Kind: opNodeUpsert, Job: "j", Now: at, Node: nodeImage{
		Name: "t", Parents: []string{"j"}, LeaseDuration: time.Second, LastRenewed: at, Type: core.DSKV,
		Map: ds.PartitionMap{Type: core.DSKV, Epoch: 1, NumSlots: 16, Blocks: []ds.PartitionEntry{
			{Info: core.BlockInfo{ID: 7, Server: "a"}, Slots: []ds.SlotRange{{Lo: 0, Hi: 15}}}}},
	}}
	got, err := codec.Marshal(op)
	if err != nil {
		t.Fatal(err)
	}
	if hex.EncodeToString(got) != golden {
		t.Errorf("node-upsert replOp encodes to\n%x, want\n%s", got, golden)
	}
	raw, _ := hex.DecodeString(golden)
	var back replOp
	if err := codec.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, op) {
		t.Errorf("golden decodes to %+v, want %+v", back, op)
	}
}

// TestParentFormatBlobsRefused: a checkpoint and a flush manifest
// written before the control codec (gob, kept in testdata) are refused
// with an error naming the codec version, and the refused restore
// leaves the controller empty and able to restore a current checkpoint.
func TestParentFormatBlobsRefused(t *testing.T) {
	gobCheckpoint, err := os.ReadFile("testdata/gob-checkpoint")
	if err != nil {
		t.Fatal(err)
	}
	gobManifest, err := os.ReadFile("testdata/gob-manifest")
	if err != nil {
		t.Fatal(err)
	}
	store := persist.NewMemStore()
	c, err := New(Options{Config: core.TestConfig(), Persist: store, DisableExpiry: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := store.Put("old/ckpt", gobCheckpoint); err != nil {
		t.Fatal(err)
	}
	if err := c.RestoreState("old/ckpt"); err == nil || !strings.Contains(err.Error(), "codec version") {
		t.Fatalf("restoring a gob checkpoint = %v, want a codec version error", err)
	}
	if s := c.Stats(); s.Jobs != 0 || s.Prefixes != 0 || s.Servers != 0 {
		t.Fatalf("refused restore left state behind: %+v", s)
	}

	if err := store.Put("old/flush/manifest", gobManifest); err != nil {
		t.Fatal(err)
	}
	if _, err := c.readManifest("old/flush"); err == nil || !strings.Contains(err.Error(), "codec version") {
		t.Fatalf("reading a gob manifest = %v, want a codec version error", err)
	}

	// The same controller still takes a checkpoint in the current format.
	src, err := New(Options{Config: core.TestConfig(), Persist: store, DisableExpiry: true})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	if err := src.RegisterJob("j"); err != nil {
		t.Fatal(err)
	}
	if _, err := src.CreatePrefix(proto.CreatePrefixReq{Path: "j/t"}); err != nil {
		t.Fatal(err)
	}
	if err := src.SaveState("new/ckpt"); err != nil {
		t.Fatal(err)
	}
	if err := c.RestoreState("new/ckpt"); err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.Jobs != 1 || s.Prefixes != 2 {
		t.Errorf("restored %d jobs / %d prefixes, want 1 / 2", s.Jobs, s.Prefixes)
	}
}
