package soak

import (
	"bytes"
	"fmt"
	"strings"
	"time"

	"jiffy/internal/metrics"
	"jiffy/internal/obs"
)

// TierReport aggregates one tier's outcome. Offered/Entitled/Achieved
// and the latency percentiles cover the well-behaved tenants; the
// declared bursters are reported separately so their deliberate
// overload doesn't pollute the tier's SLO arithmetic.
type TierReport struct {
	Name    string
	Tenants int

	Offered   int64
	Entitled  int64
	Achieved  int64
	Throttled int64
	Tolerated int64

	// AchievedRatio is achieved/entitled over well-behaved tenants.
	AchievedRatio float64
	// Fairness is Jain's index over the well-behaved tenants'
	// satisfaction ratios (achieved/entitled, capped at 1).
	Fairness float64
	P50, P99 time.Duration

	// Burster columns: the declared over-quota tenants.
	BursterOffered   int64
	BursterAchieved  int64
	BursterThrottled int64
}

// Report is one soak run's graded outcome.
type Report struct {
	Seed  int64
	Ticks int
	Tiers []TierReport

	// TotalAcked is the number of acknowledged writes read back at the
	// end; LostWrites of them were missing or wrong.
	TotalAcked int64
	LostWrites int

	// ServerThrottled sums jiffy_tenant_throttled_total across every
	// server's admission gate; ClientThrottled is what clients saw as
	// typed ErrQuotaExceeded. Server-side is >= client-side because the
	// retry policy absorbs one throttle round before surfacing it.
	ServerThrottled int64
	ClientThrottled int64

	// Tiering columns (soaks with a scale-to-zero cohort): fleet-wide
	// demotion/promotion counters scraped from the servers' metric
	// registries, and the idle cohort's re-access outcome.
	IdleTenants        int
	IdleReaccessErrors int
	TierDemotions      int64
	TierPromotions     int64
	TierRehydrateBytes int64

	// ControllerFailovers is the promoted standby's scraped
	// jiffy_ctrl_failovers_total after a mid-soak leader kill
	// (CtrlKillAtTick > 0; zero otherwise).
	ControllerFailovers int64

	Violations []string
}

// Passed reports whether the soak met every SLO with zero acked-write
// loss.
func (r *Report) Passed() bool {
	return len(r.Violations) == 0 && r.LostWrites == 0
}

// Jain computes Jain's fairness index (Σx)²/(n·Σx²); 1.0 is perfectly
// fair, 1/n is maximally unfair.
func Jain(xs []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	var sum, sq float64
	for _, x := range xs {
		sum += x
		sq += x * x
	}
	if sq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sq)
}

// report folds the per-tenant counters into per-tier aggregates and
// grades them against the tier SLOs.
func (e *engine) report(lost int) *Report {
	rep := &Report{Seed: e.cfg.Seed, Ticks: e.cfg.Ticks, LostWrites: lost}
	for ti, tier := range e.cfg.Tiers {
		tr := TierReport{Name: tier.Name, Tenants: tier.Tenants}
		var ratios []float64
		var lats []time.Duration
		for _, tn := range e.tenants {
			if tn.tier != ti {
				continue
			}
			tn.mu.Lock()
			rep.TotalAcked += int64(len(tn.acked))
			rep.ClientThrottled += tn.throttled
			if tn.burst {
				tr.BursterOffered += tn.offered
				tr.BursterAchieved += tn.achieved
				tr.BursterThrottled += tn.throttled
				tn.mu.Unlock()
				continue
			}
			tr.Offered += tn.offered
			tr.Entitled += tn.entitled
			tr.Achieved += tn.achieved
			tr.Throttled += tn.throttled
			tr.Tolerated += tn.tolerated
			if tn.entitled > 0 {
				x := float64(tn.achieved) / float64(tn.entitled)
				if x > 1 {
					x = 1
				}
				ratios = append(ratios, x)
			}
			lats = append(lats, tn.lat...)
			tn.mu.Unlock()
		}
		if tr.Entitled > 0 {
			tr.AchievedRatio = float64(tr.Achieved) / float64(tr.Entitled)
		}
		tr.Fairness = Jain(ratios)
		tr.P50 = metrics.Quantile(lats, 0.50)
		tr.P99 = metrics.Quantile(lats, 0.99)

		slo := tier.SLO
		if slo.MinThroughput > 0 && tr.AchievedRatio < slo.MinThroughput {
			e.violations = append(e.violations, fmt.Sprintf(
				"tier %s: achieved/entitled %.3f < SLO %.2f", tier.Name, tr.AchievedRatio, slo.MinThroughput))
		}
		if slo.MaxP99 > 0 && len(lats) > 0 && tr.P99 > slo.MaxP99 {
			e.violations = append(e.violations, fmt.Sprintf(
				"tier %s: p99 %v > SLO %v", tier.Name, tr.P99, slo.MaxP99))
		}
		if slo.MinFairness > 0 && tr.Fairness < slo.MinFairness {
			e.violations = append(e.violations, fmt.Sprintf(
				"tier %s: Jain fairness %.3f < SLO %.2f", tier.Name, tr.Fairness, slo.MinFairness))
		}
		// A declared burster offers many multiples of its quota; QoS is
		// only demonstrably on if the admission gate pushed back, and the
		// pushback must have been the typed throttle (anything else landed
		// in unexpected-error accounting).
		if tier.BurstTenants > 0 && tr.BursterThrottled == 0 {
			e.violations = append(e.violations, fmt.Sprintf(
				"tier %s: burster offered %d ops but was never throttled", tier.Name, tr.BursterOffered))
		}
		rep.Tiers = append(rep.Tiers, tr)
	}
	if n := e.unexpected.Load(); n > 0 {
		first, _ := e.firstErr.Load().(string)
		e.violations = append(e.violations, fmt.Sprintf(
			"%d ops failed outside declared fault windows (first: %s)", n, first))
	}
	if lost > 0 {
		e.violations = append(e.violations, fmt.Sprintf(
			"%d of %d acked writes lost after kill/repair/drain", lost, rep.TotalAcked))
	}
	return rep
}

// checkMetrics cross-checks the observability plane against the gates:
// every server's jiffy_tenant_throttled_total must equal its gate's
// counter, and the fleet-wide server-side throttle count must be at
// least what clients observed — a throttle is never silently dropped.
func (e *engine) checkMetrics(rep *Report) {
	for i, srv := range e.cluster.Servers {
		stats := srv.Gate().Stats()
		var buf bytes.Buffer
		srv.Obs().WritePrometheus(&buf)
		metrics := obs.ParsePrometheus(buf.Bytes())
		for _, ts := range stats {
			rep.ServerThrottled += ts.Throttled
			if ts.Throttled == 0 {
				continue
			}
			key := fmt.Sprintf("jiffy_tenant_throttled_total{tenant=%q}", ts.Tenant)
			if got := metrics[key]; int64(got) != ts.Throttled {
				e.violations = append(e.violations, fmt.Sprintf(
					"server %d: metric %s = %v, gate counter = %d", i, key, got, ts.Throttled))
			}
		}
	}
	if rep.ServerThrottled < rep.ClientThrottled {
		e.violations = append(e.violations, fmt.Sprintf(
			"server-side throttles %d < client-observed %d: throttles dropped",
			rep.ServerThrottled, rep.ClientThrottled))
	}
	if rep.ClientThrottled > 0 && rep.ServerThrottled == 0 {
		e.violations = append(e.violations,
			"clients saw throttles but no server gate counted any")
	}

	// Control-plane failover accounting: after a mid-soak leader kill
	// the promoted standby must export the takeover — exactly one
	// failover, and the leader gauge flipped to 1 — while the zero
	// unexpected-error gate above already proved the handoff was
	// invisible to clients.
	if e.ctrlKilledAddr != "" && len(e.cluster.Controllers) > 1 {
		var buf bytes.Buffer
		e.cluster.Controllers[1].Obs().WritePrometheus(&buf)
		m := obs.ParsePrometheus(buf.Bytes())
		rep.ControllerFailovers = int64(m["jiffy_ctrl_failovers_total"])
		if m["jiffy_ctrl_leader"] != 1 {
			e.violations = append(e.violations,
				"promoted standby does not export jiffy_ctrl_leader=1")
		}
		if rep.ControllerFailovers != 1 {
			e.violations = append(e.violations, fmt.Sprintf(
				"promoted standby exports %d failovers, want 1", rep.ControllerFailovers))
		}
	}

	// Tier metrics must agree with ground truth: each server's tiered
	// gauge matches a direct store scan, and the idle cohort's journey
	// (demote mid-run, rehydrate on re-access) shows up in the fleet
	// counters.
	rep.IdleTenants = e.cfg.IdleTenants
	rep.IdleReaccessErrors = e.idleReaccessErrs
	if e.cfg.IdleTenants > 0 {
		for i, srv := range e.cluster.Servers {
			var buf bytes.Buffer
			srv.Obs().WritePrometheus(&buf)
			m := obs.ParsePrometheus(buf.Bytes())
			rep.TierDemotions += int64(m["jiffy_tier_demotions_total"])
			rep.TierPromotions += int64(m["jiffy_tier_promotions_total"])
			rep.TierRehydrateBytes += int64(m["jiffy_tier_rehydrate_bytes_total"])
			if got, want := m["jiffy_blocks_tiered"], float64(srv.Store().TieredBlocks()); got != want {
				e.violations = append(e.violations, fmt.Sprintf(
					"server %d: jiffy_blocks_tiered = %v, store scan says %v", i, got, want))
			}
		}
		if rep.TierDemotions == 0 {
			e.violations = append(e.violations,
				"idle cohort configured but no block was ever demoted")
		}
		if rep.TierPromotions == 0 || rep.TierRehydrateBytes == 0 {
			e.violations = append(e.violations,
				"idle cohort re-access drove no rehydrations")
		}
	}
}

// Render formats the report as the human-readable soak artifact.
func (r *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "jiffy soak report (seed %d, %d ticks)\n", r.Seed, r.Ticks)
	fmt.Fprintf(&b, "%-8s %7s %9s %9s %9s %9s %7s %9s %9s %9s\n",
		"tier", "tenants", "offered", "entitled", "achieved", "throttled", "ratio", "fairness", "p50", "p99")
	for _, t := range r.Tiers {
		fmt.Fprintf(&b, "%-8s %7d %9d %9d %9d %9d %7.3f %9.3f %9s %9s\n",
			t.Name, t.Tenants, t.Offered, t.Entitled, t.Achieved, t.Throttled,
			t.AchievedRatio, t.Fairness,
			t.P50.Round(time.Microsecond), t.P99.Round(time.Microsecond))
		if t.BursterOffered > 0 {
			fmt.Fprintf(&b, "%-8s %7s %9d %9s %9d %9d   (deliberately over quota)\n",
				"  burst", "", t.BursterOffered, "-", t.BursterAchieved, t.BursterThrottled)
		}
	}
	fmt.Fprintf(&b, "acked writes: %d verified, %d lost\n", r.TotalAcked, r.LostWrites)
	fmt.Fprintf(&b, "throttles: %d server-side, %d client-observed (typed ErrQuotaExceeded)\n",
		r.ServerThrottled, r.ClientThrottled)
	if r.IdleTenants > 0 {
		fmt.Fprintf(&b, "tiering: %d demotions, %d promotions, %d bytes rehydrated; idle cohort %d tenants, %d re-access errors\n",
			r.TierDemotions, r.TierPromotions, r.TierRehydrateBytes,
			r.IdleTenants, r.IdleReaccessErrors)
	}
	if r.ControllerFailovers > 0 {
		fmt.Fprintf(&b, "control plane: %d leader failover(s) mid-soak, handoff invisible to clients\n",
			r.ControllerFailovers)
	}
	if len(r.Violations) == 0 {
		b.WriteString("PASS: all tier SLOs met, zero acked-write loss\n")
	} else {
		fmt.Fprintf(&b, "FAIL: %d violations\n", len(r.Violations))
		for _, v := range r.Violations {
			fmt.Fprintf(&b, "  - %s\n", v)
		}
	}
	return b.String()
}
