// Command jiffy-server runs a Jiffy memory server: it hosts fixed-size
// memory blocks, serves data-structure operations, pushes notifications
// to subscribers, executes controller-shipped repartitioning and
// participates in chain replication (§4.2.2).
//
//	jiffy-server -listen :9091 -controller ctrl-host:9090 \
//	    -capacity-gb 32 -advertise 10.0.0.5:9091
//
// The server carves its capacity into blocks of the configured size and
// registers them with the controller's free list.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"jiffy/internal/core"
	"jiffy/internal/obs"
	"jiffy/internal/persist"
	"jiffy/internal/server"
)

func main() {
	var (
		listen     = flag.String("listen", ":9091", "address to serve data RPCs on")
		advertise  = flag.String("advertise", "", "address clients should use (default: the listen address)")
		controller = flag.String("controller", "localhost:9090",
			"controller address, or comma-separated controller group")
		capacityGB = flag.Float64("capacity-gb", 4, "memory contributed to the pool, in GiB")
		blockSize  = flag.Int("block-size", core.DefaultBlockSize, "block size (must match the controller)")
		high       = flag.Float64("high-threshold", core.DefaultHighThreshold, "scale-up usage fraction")
		low        = flag.Float64("low-threshold", core.DefaultLowThreshold, "scale-down usage fraction")
		persistDir = flag.String("persist-dir", "", "directory for the persistent tier (default: in-memory)")
		admin      = flag.String("admin", "", "serve /metrics, /healthz, /spans and pprof on this address (e.g. :9191)")
		watermark  = flag.Int64("memory-watermark-bytes", 0, "resident-memory budget; cold blocks demote to the persist tier above it (0 disables)")
		tierIdle   = flag.Duration("tier-idle-after", 0, "demote blocks untouched this long, regardless of pressure (0 disables)")
		tierCool   = flag.Duration("tier-cooldown", core.DefaultTierCooldown, "never demote a block within this window of its creation or last rehydration")
		tierScan   = flag.Duration("tier-scan-period", core.DefaultTierScanPeriod, "demotion scan interval")
		verbose    = flag.Bool("v", false, "debug logging")
	)
	flag.Parse()

	level := slog.LevelInfo
	if *verbose {
		level = slog.LevelDebug
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	cfg := core.DefaultConfig()
	cfg.BlockSize = *blockSize
	cfg.HighThreshold = *high
	cfg.LowThreshold = *low
	cfg.MemoryWatermarkBytes = *watermark
	cfg.TierIdleAfter = *tierIdle
	cfg.TierCooldown = *tierCool
	cfg.TierScanPeriod = *tierScan

	var store persist.Store = persist.NewMemStore()
	if *persistDir != "" {
		var err error
		store, err = persist.NewDirStore(*persistDir)
		if err != nil {
			fatal("open persist dir: %v", err)
		}
	}

	srv, err := server.New(server.Options{
		Config:          cfg,
		ControllerAddrs: strings.Split(*controller, ","),
		Persist:         store,
		Logger:          logger,
	})
	if err != nil {
		fatal("start server: %v", err)
	}
	bound, err := srv.Listen(*listen)
	if err != nil {
		fatal("listen: %v", err)
	}
	if *advertise != "" {
		// Re-listen is not needed; registration just advertises the
		// externally reachable address.
		bound = *advertise
	} else if host, port, err := net.SplitHostPort(bound); err == nil && (host == "::" || host == "0.0.0.0" || host == "") {
		// A wildcard listen address is not dialable; keep the port but
		// warn the operator to set -advertise in multi-host setups.
		logger.Warn("listening on a wildcard address; set -advertise for multi-host deployments",
			"port", port)
	}

	if *admin != "" {
		adminSrv, err := obs.ServeAdmin(*admin, srv.AdminOptions())
		if err != nil {
			fatal("admin endpoint: %v", err)
		}
		defer adminSrv.Close()
		logger.Info("admin endpoint up", "addr", adminSrv.Addr)
	}

	numBlocks := int(*capacityGB * float64(core.GB) / float64(cfg.BlockSize))
	if numBlocks < 1 {
		fatal("capacity %.2fGiB is smaller than one %d-byte block", *capacityGB, cfg.BlockSize)
	}
	// Registration retries while the controller comes up.
	for attempt := 0; ; attempt++ {
		if err := srv.Register(numBlocks); err == nil {
			break
		} else if attempt > 60 {
			fatal("register with controller %s: %v", *controller, err)
		} else {
			logger.Info("controller not ready; retrying", "err", err)
			time.Sleep(time.Second)
		}
	}
	logger.Info("jiffy memory server up",
		"addr", bound,
		"controller", *controller,
		"blocks", numBlocks,
		"block_size", cfg.BlockSize,
	)

	stopCh := make(chan os.Signal, 1)
	signal.Notify(stopCh, os.Interrupt, syscall.SIGTERM)
	ticker := time.NewTicker(30 * time.Second)
	defer ticker.Stop()
	for {
		select {
		case <-stopCh:
			logger.Info("shutting down")
			srv.Close()
			return
		case <-ticker.C:
			blocks, used := srv.Store().Stats()
			logger.Info("stats", "blocks", blocks, "used_bytes", used, "ops", srv.Ops())
		}
	}
}

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "jiffy-server: "+format+"\n", args...)
	os.Exit(1)
}
