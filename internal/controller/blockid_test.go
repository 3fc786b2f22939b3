package controller_test

import (
	"fmt"
	"testing"
	"time"

	"jiffy/internal/controller"
	"jiffy/internal/core"
	"jiffy/internal/proto"
)

// TestBlockIDNotReusedAcrossFailover: a controller that takes over,
// by promotion or from a checkpoint, mints block IDs above every ID
// its predecessor placed, including the IDs of prefixes already
// removed — a stale handle to one of those must not name a new block.
func TestBlockIDNotReusedAcrossFailover(t *testing.T) {
	cases := []struct {
		name string
		// takeOver replaces the group's leader and returns the
		// controller that places next.
		takeOver func(t *testing.T, r *groupRig) *controller.Controller
	}{
		{"promotion", func(t *testing.T, r *groupRig) *controller.Controller {
			r.ctrls[0].PulseNow()
			r.ctrls[0].Close()
			r.ctrls[1].PromoteNow()
			return r.ctrls[1]
		}},
		{"checkpoint", func(t *testing.T, r *groupRig) *controller.Controller {
			if err := r.ctrls[0].SaveState("ckpt/blockid"); err != nil {
				t.Fatal(err)
			}
			r.ctrls[0].Close()
			cfg := core.TestConfig()
			cfg.LeaseDuration = time.Hour
			c, err := controller.New(controller.Options{Config: cfg, Persist: r.store, DisableExpiry: true})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Close() })
			if _, err := c.Listen(fmt.Sprintf("mem://blockid-restored-%d", groupSeq)); err != nil {
				t.Fatal(err)
			}
			if err := c.RestoreState("ckpt/blockid"); err != nil {
				t.Fatal(err)
			}
			return c
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := core.TestConfig()
			cfg.LeaseDuration = time.Hour
			r := newGroupRig(t, cfg, 2, 1, 4)
			leader := r.ctrls[0]
			if err := leader.RegisterJob("j"); err != nil {
				t.Fatal(err)
			}
			place := func(c *controller.Controller, path core.Path) core.BlockID {
				t.Helper()
				resp, err := c.CreatePrefix(proto.CreatePrefixReq{Path: path, Type: core.DSKV, InitialBlocks: 1})
				if err != nil {
					t.Fatal(err)
				}
				return resp.Map.Blocks[0].Info.ID
			}
			old := place(leader, "j/a")
			if err := leader.RemovePrefix("j/a"); err != nil {
				t.Fatal(err)
			}
			if got := place(tc.takeOver(t, r), "j/b"); got == old {
				t.Fatalf("placement after %s re-minted %v", tc.name, old)
			}
		})
	}
}
