// Command jiffy-cli pokes a running Jiffy cluster: register jobs,
// create prefixes, read and write the built-in data structures, and
// inspect controller state.
//
//	jiffy-cli -controller localhost:9090 register-job job1
//	jiffy-cli create job1/t1 kv
//	jiffy-cli put job1/t1 key value
//	jiffy-cli get job1/t1 key
//	jiffy-cli enqueue job1/q item
//	jiffy-cli dequeue job1/q
//	jiffy-cli append job1/f "some data"
//	jiffy-cli read job1/f 0 100
//	jiffy-cli renew job1/t1
//	jiffy-cli flush job1/t1 s3://bucket/ckpt
//	jiffy-cli load  job1/t1 s3://bucket/ckpt
//	jiffy-cli ls job1
//	jiffy-cli stats
//	jiffy-cli stats --watch --admin localhost:9190
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"jiffy"
	"jiffy/internal/core"
	"jiffy/internal/obs"
)

func main() {
	controller := flag.String("controller", "localhost:9090",
		"controller address, or comma-separated controller group")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}
	c, err := jiffy.Dial(context.Background(),
		jiffy.WithControllers(strings.Split(*controller, ",")...))
	if err != nil {
		fatal("connect: %v", err)
	}
	defer c.Close()
	if err := run(c, args); err != nil {
		fatal("%v", err)
	}
}

func run(c *jiffy.Client, args []string) error {
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "register-job":
		need(rest, 1)
		return c.RegisterJob(context.Background(), core.JobID(rest[0]))
	case "deregister-job":
		need(rest, 1)
		return c.DeregisterJob(context.Background(), core.JobID(rest[0]))
	case "create":
		need(rest, 2)
		t, err := core.ParseDSType(rest[1])
		if err != nil {
			return err
		}
		_, lease, err := c.CreatePrefix(context.Background(), core.Path(rest[0]), nil, t, 1, 0)
		if err != nil {
			return err
		}
		fmt.Printf("created %s (%s, lease %v)\n", rest[0], t, lease)
		return nil
	case "remove":
		need(rest, 1)
		return c.RemovePrefix(context.Background(), core.Path(rest[0]))
	case "put":
		need(rest, 3)
		kv, err := c.OpenKV(context.Background(), core.Path(rest[0]))
		if err != nil {
			return err
		}
		return kv.Put(context.Background(), rest[1], []byte(rest[2]))
	case "get":
		need(rest, 2)
		kv, err := c.OpenKV(context.Background(), core.Path(rest[0]))
		if err != nil {
			return err
		}
		v, err := kv.Get(context.Background(), rest[1])
		if err != nil {
			return err
		}
		fmt.Println(string(v))
		return nil
	case "del":
		need(rest, 2)
		kv, err := c.OpenKV(context.Background(), core.Path(rest[0]))
		if err != nil {
			return err
		}
		old, err := kv.Delete(context.Background(), rest[1])
		if err != nil {
			return err
		}
		fmt.Println(string(old))
		return nil
	case "enqueue":
		need(rest, 2)
		q, err := c.OpenQueue(context.Background(), core.Path(rest[0]))
		if err != nil {
			return err
		}
		return q.Enqueue(context.Background(), []byte(rest[1]))
	case "dequeue":
		need(rest, 1)
		q, err := c.OpenQueue(context.Background(), core.Path(rest[0]))
		if err != nil {
			return err
		}
		item, err := q.Dequeue(context.Background())
		if err != nil {
			return err
		}
		fmt.Println(string(item))
		return nil
	case "append":
		need(rest, 2)
		f, err := c.OpenFile(context.Background(), core.Path(rest[0]))
		if err != nil {
			return err
		}
		off, err := f.AppendRecord(context.Background(), []byte(rest[1]))
		if err != nil {
			return err
		}
		fmt.Printf("offset %d\n", off)
		return nil
	case "read":
		need(rest, 3)
		f, err := c.OpenFile(context.Background(), core.Path(rest[0]))
		if err != nil {
			return err
		}
		off, err1 := strconv.Atoi(rest[1])
		n, err2 := strconv.Atoi(rest[2])
		if err1 != nil || err2 != nil {
			return fmt.Errorf("read wants numeric offset and length")
		}
		data, err := f.ReadAt(context.Background(), off, n)
		if err != nil {
			return err
		}
		os.Stdout.Write(data)
		fmt.Println()
		return nil
	case "renew":
		need(rest, 1)
		n, err := c.RenewLease(context.Background(), core.Path(rest[0]))
		if err != nil {
			return err
		}
		fmt.Printf("renewed %d prefixes\n", n)
		return nil
	case "flush":
		need(rest, 2)
		n, err := c.FlushPrefix(context.Background(), core.Path(rest[0]), rest[1])
		if err != nil {
			return err
		}
		fmt.Printf("flushed %d blocks\n", n)
		return nil
	case "load":
		need(rest, 2)
		return c.LoadPrefix(context.Background(), core.Path(rest[0]), rest[1])
	case "ls":
		need(rest, 1)
		prefixes, err := c.ListPrefixes(context.Background(), core.JobID(rest[0]))
		if err != nil {
			return err
		}
		for _, p := range prefixes {
			fmt.Printf("%-40s %-6s blocks=%d renewed=%s\n",
				p.Path, p.Type, p.Blocks, p.LastRenewed.Format("15:04:05.000"))
		}
		return nil
	case "save-state":
		need(rest, 1)
		return c.SaveControllerState(context.Background(), rest[0])
	case "drain":
		need(rest, 1)
		n, err := c.DrainServer(context.Background(), rest[0])
		if err != nil {
			return err
		}
		fmt.Printf("drained %s: migrated %d partition entries\n", rest[0], n)
		return nil
	case "role":
		need(rest, 0)
		role, err := c.ControllerRole(context.Background())
		if err != nil {
			return err
		}
		fmt.Printf("leader: %s\ngeneration: %d\n", role.Leader, role.Gen)
		return nil
	case "promote":
		need(rest, 1)
		gen, err := c.PromoteController(context.Background(), rest[0])
		if err != nil {
			return err
		}
		fmt.Printf("promoted %s at generation %d\n", rest[0], gen)
		return nil
	case "stats":
		return stats(c, rest)
	case "health":
		return health(c, rest)
	default:
		usage()
		return fmt.Errorf("unknown command %q", cmd)
	}
}

// stats prints controller statistics once, or — with --watch —
// refreshes periodically; --admin switches the source from the
// controller-stats RPC to an admin endpoint's Prometheus /metrics.
func stats(c *jiffy.Client, args []string) error {
	fs := flag.NewFlagSet("stats", flag.ContinueOnError)
	watch := fs.Bool("watch", false, "refresh until interrupted")
	admin := fs.String("admin", "", "read an admin endpoint's /metrics instead of the stats RPC")
	interval := fs.Duration("interval", 2*time.Second, "refresh period with --watch")
	if err := fs.Parse(args); err != nil {
		return err
	}
	for {
		var err error
		if *admin != "" {
			err = printAdminMetrics(*admin)
		} else {
			err = printControllerStats(c)
		}
		if err != nil || !*watch {
			return err
		}
		time.Sleep(*interval)
		fmt.Println()
	}
}

// health prints the cluster's gray-failure view: the controller's
// probation list, and this client's own per-server observations
// (latency EWMA/p95) for every server it has talked to.
// --admin additionally fetches an admin endpoint's /healthz?detail=1.
func health(c *jiffy.Client, args []string) error {
	fs := flag.NewFlagSet("health", flag.ContinueOnError)
	admin := fs.String("admin", "", "also fetch this admin endpoint's /healthz?detail=1")
	if err := fs.Parse(args); err != nil {
		return err
	}
	s, err := c.ControllerStats(context.Background())
	if err != nil {
		return err
	}
	fmt.Printf("servers:  %d\n", s.Servers)
	if len(s.DegradedServers) == 0 {
		fmt.Println("degraded: none")
	} else {
		fmt.Printf("degraded: %s\n", strings.Join(s.DegradedServers, ", "))
	}
	if hs := c.ServerHealth(); len(hs) > 0 {
		fmt.Println("client-observed server health:")
		for _, h := range hs {
			fmt.Printf("  %-36s samples=%d ewma=%v p95=%v probation=%v\n",
				h.Server, h.Samples, h.EWMA, h.P95, h.Probation)
		}
	}
	if *admin != "" {
		addr := *admin
		if !strings.Contains(addr, "://") {
			addr = "http://" + addr
		}
		resp, err := http.Get(addr + "/healthz?detail=1")
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return err
		}
		fmt.Printf("admin %s: %s", *admin, body)
	}
	return nil
}

func printControllerStats(c *jiffy.Client) error {
	s, err := c.ControllerStats(context.Background())
	if err != nil {
		return err
	}
	fmt.Printf("servers:          %d\n", s.Servers)
	fmt.Printf("blocks total:     %d\n", s.TotalBlocks)
	fmt.Printf("blocks free:      %d\n", s.FreeBlocks)
	fmt.Printf("blocks allocated: %d\n", s.AllocatedBlocks)
	fmt.Printf("jobs:             %d\n", s.Jobs)
	fmt.Printf("prefixes:         %d\n", s.Prefixes)
	fmt.Printf("metadata bytes:   %d\n", s.MetadataBytes)
	return nil
}

func printAdminMetrics(addr string) error {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	resp, err := http.Get(addr + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	vals := obs.ParsePrometheus(body)
	for _, k := range obs.SortedKeys(vals) {
		fmt.Printf("%-60s %g\n", k, vals[k])
	}
	return nil
}

func need(args []string, n int) {
	if len(args) != n {
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: jiffy-cli [-controller addr] <command> [args...]

commands:
  register-job <job>            deregister-job <job>
  create <path> <file|queue|kv> remove <path>
  put <path> <key> <value>      get <path> <key>        del <path> <key>
  enqueue <path> <item>         dequeue <path>
  append <path> <data>          read <path> <off> <len>
  renew <path>                  flush <path> <dest>     load <path> <src>
  ls <job>                      stats [--watch] [--admin addr]
  health [--admin addr]
  save-state <key>              drain <server-addr>
  role                          promote <controller-addr>`)
}

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "jiffy-cli: "+format+"\n", args...)
	os.Exit(1)
}
