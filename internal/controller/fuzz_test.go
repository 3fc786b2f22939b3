package controller

import (
	"bytes"
	"testing"

	"jiffy/internal/codec"
	"jiffy/internal/core"
	"jiffy/internal/ds"
)

// FuzzManifestDecode hardens the flush-manifest codec: a manifest read
// back from the persist tier during LoadPrefix or chain repair is
// attacker-distance data (a corrupted or truncated object store entry),
// so decoding must never panic, and anything the decoder accepts must
// re-encode to the identical bytes — otherwise repair could rebuild a
// prefix from a manifest that no flush could have written.
func FuzzManifestDecode(f *testing.F) {
	valid, err := codec.Marshal(manifest{
		Type:      core.DSKV,
		NumSlots:  16,
		ChunkSize: 4096,
		Entries: []manifestEntry{
			{Chunk: 0, Slots: []ds.SlotRange{{Lo: 0, Hi: 7}}, Key: "jiffy-flush/j/t/block-0", Block: 12, Gen: 3},
			{Chunk: 1, Slots: []ds.SlotRange{{Lo: 8, Hi: 15}}, Key: "jiffy-flush/j/t/block-1", Block: 40},
		},
	})
	if err != nil {
		f.Fatalf("marshal seed manifest: %v", err)
	}
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("not a manifest"))
	f.Add(valid[:len(valid)/2])

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return // bound decoder allocations, not codec behavior
		}
		var m manifest
		if err := codec.Unmarshal(data, &m); err != nil {
			return // rejection is fine; panicking is not
		}
		re, err := codec.Marshal(m)
		if err != nil {
			t.Fatalf("re-marshal of accepted manifest failed: %v", err)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("accepted manifest re-encodes differently:\n  in %x\n out %x", data, re)
		}
	})
}
