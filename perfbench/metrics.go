package main

import (
	"fmt"
	"io"
	"sort"
)

// metricDef describes one reported metric. layer and moves document
// per-layer metrics: the layer they measure, and which end-to-end metric
// on which workload they should move.
type metricDef struct {
	name, unit, better string
	layer, moves       string
}

// endToEnd are the untraced run's metrics, one value per run.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", "", "median host seconds to build machines, map and touch the working sets, and Warm, with the garbage collector paused, corrected for the host's momentary speed by the probe (raw / (probe ns / 2 ns)^0.8)"},
	{"sim_speed_adj", "sim_s/s", "higher", "", "median simulated seconds per host second over the timed span, corrected for the host's momentary speed by the probe (raw x (probe ns / 2 ns)^0.8)"},
	{"heap_peak_mb", "MB", "lower", "", "median over episodes of the peak live Go heap (after setup and after the run)"},
	{"alloc_bytes_per_sim_s", "B/sim_s", "lower", "", "median heap bytes allocated per simulated second over set-up and timed span"},
	{"check_pass_frac", "frac", "higher", "", "correctness checks passed / attempted (1 - check_fail_frac)"},
}

const (
	allSim    = "sim_speed_adj on all three workloads"
	hememSim  = "sim_speed_adj on gups-hemem and fleet"
	mmSim     = "sim_speed_adj on gups-mm only"
	fleetSim  = "sim_speed_adj on fleet"
	noneMoves = "fingerprint: compared exactly, not gated"
)

// perLayer are the traced run's metrics. Times are those of the traced
// episode with the median timed span; counts are per episode and exact.
var perLayer = []metricDef{
	{"machine.steps", "count", "lower", "machine", "sample count of machine.step_us; " + allSim},
	{"machine.step_s", "s", "lower", "machine", "total Machine.Step time = machine.self_s + trace.step_children_s; " + allSim},
	{"machine.step_us.p50", "us", "lower", "machine", allSim},
	{"machine.step_us.p999", "us", "lower", "machine", "tail step: refreshModel on gups-mm, policy tick on gups-hemem; " + allSim},
	{"machine.self_s", "s", "lower", "machine", "Step minus child spans: solver, PEBS feeding, migrator (see cpu.machine.*); " + allSim},
	{"machine.faults", "count", "lower", "machine", "page-missing faults; setup_s on all"},
	{"machine.audit_s", "s", "lower", "machine", fleetSim},
	{"machine.audits", "count", "lower", "machine", fleetSim},
	{"machine.mig.pages", "count", "lower", "machine", "sim_speed_adj on gups-hemem and fleet"},
	{"machine.mig.promotions", "count", "lower", "machine", "sim_speed_adj on gups-hemem and fleet"},
	{"machine.mig.demotions", "count", "lower", "machine", "sim_speed_adj on gups-hemem and fleet"},
	{"machine.mig.queue_peak", "count", "lower", "machine", "peak Migrator.QueueLen across steps; sim_speed_adj on gups-hemem and fleet"},
	{"pebs.pushed", "count", "lower", "pebs", hememSim + "; zero on gups-mm"},
	{"pebs.dropped", "count", "lower", "pebs", hememSim + "; zero on gups-mm"},
	{"pebs.ingest_frac", "frac", "higher", "pebs", "core samples / pebs.pushed; " + hememSim},
	{"core.poll_s", "s", "lower", "core", "HeMem.OnQuantum (tracker ingest); " + hememSim},
	{"core.observes", "count", "lower", "core", "Policy.Observe calls (counted, not timed); " + hememSim},
	{"core.policy_tick_s", "s", "lower", "core", hememSim},
	{"core.policy_ticks", "count", "lower", "core", hememSim},
	{"core.page_in_s", "s", "lower", "core", "setup_s on gups-hemem, sim_speed_adj on fleet"},
	{"core.page_ins", "count", "lower", "core", "setup_s on gups-hemem, sim_speed_adj on fleet"},
	{"core.promotions", "count", "lower", "core", hememSim},
	{"core.demotions", "count", "lower", "core", hememSim},
	{"core.cool_epochs", "count", "lower", "core", hememSim},
	{"memmode.observe_s", "s", "lower", "memmode", "ObserveTraffic, which runs refreshModel; " + mmSim},
	{"memmode.cost_s", "s", "lower", "memmode", mmSim},
	{"memmode.cost_calls", "count", "lower", "memmode", mmSim},
	{"memmode.page_in_s", "s", "lower", "memmode", "setup_s on gups-mm"},
	{"memmode.page_ins", "count", "lower", "memmode", "setup_s on gups-mm"},
	{"memmode.rows_built", "count", "lower", "memmode", mmSim},
	{"memmode.rows_reused", "count", "higher", "memmode", mmSim},
	{"memmode.row_reuse_frac", "frac", "higher", "memmode", mmSim},
	{"tenant.admit_s", "s", "lower", "tenant", "TenantRuntime.Admit, including the app's map and touch; " + fleetSim},
	{"tenant.depart_s", "s", "lower", "tenant", fleetSim},
	{"tenant.admitted", "count", "higher", "tenant", fleetSim},
	{"tenant.queued", "count", "lower", "tenant", fleetSim},
	{"tenant.rejected", "count", "lower", "tenant", fleetSim},
	{"tenant.departed", "count", "higher", "tenant", fleetSim},
	{"vm.metadata_bytes", "bytes", "lower", "vm", "heap_peak_mb and setup_s on all"},
	{"gups.shift_s", "s", "lower", "gups", "GUPS.ShiftHotSet; sim_speed_adj on gups-hemem"},
	{"gups.shifts", "count", "lower", "gups", "sim_speed_adj on gups-hemem"},
	{"alloc.span_bytes_per_sim_s", "B/sim_s", "lower", "bench", "heap bytes allocated per simulated second in the timed span alone (untraced episodes); alloc_bytes_per_sim_s on all"},
	{"trace.overhead_frac", "frac", "lower", "bench", "1 - median traced sim_speed_adj / median untraced sim_speed_adj in the same run"},
	{"host.sim_speed", "sim_s/s", "higher", "bench", "median uncorrected simulated seconds per host second of the run's untraced episodes; moves with the host as well as with the program"},
	{"host.setup_s", "s", "lower", "bench", "median uncorrected set-up seconds of the run's untraced episodes; moves with the host as well as with the program"},
	{"host.probe_ns", "ns", "lower", "bench", "median probe update time of the run's untraced episodes: the host's momentary speed, not the program's"},
	{"trace.step_children_s", "s", "lower", "bench", "self time of every span inside Step; plus machine.self_s equals machine.step_s"},
	{"trace.spans", "count", "lower", "bench", "spans recorded in one traced episode"},
	{"check_fail_frac", "frac", "lower", "bench", "failed / attempted correctness checks"},
	{"score.gups", "GUPS", "higher", "workload", noneMoves + "; zero on fleet"},
	{"score.gold_p99_ns", "ns", "lower", "workload", noneMoves + "; zero on gups"},
	{"score.besteffort_p99_ns", "ns", "lower", "workload", noneMoves + "; zero on gups"},
	{"fingerprint.digest", "count", "lower", "bench", noneMoves},
}

func init() {
	for _, b := range cpuBuckets {
		moves := "flat CPU seconds in the median traced episode's timed span"
		if b == "probe" {
			moves = "flat CPU seconds of the probe bursts between chunks, which the timed span's host time excludes"
		}
		perLayer = append(perLayer, metricDef{"cpu." + b + "_s", "s", "lower", "pprof", moves})
	}
}

// describe writes the metric table as Markdown.
func describe(w io.Writer) {
	fmt.Fprintln(w, "| metric | unit | better | layer | moves / meaning |")
	fmt.Fprintln(w, "|---|---|---|---|---|")
	for _, d := range endToEnd {
		fmt.Fprintf(w, "| `%s` | %s | %s | end-to-end | %s |\n", d.name, d.unit, d.better, d.moves)
	}
	for _, d := range perLayer {
		fmt.Fprintf(w, "| `%s` | %s | %s | %s | %s |\n", d.name, d.unit, d.better, d.layer, d.moves)
	}
}

// report renders the values of defs as the result's metrics object.
// Every metric is present; a value the run did not produce is a bug.
func report(defs []metricDef, vals map[string]float64) (map[string]any, error) {
	out := make(map[string]any, len(defs))
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		out[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	if len(vals) != len(defs) {
		var extra []string
		for k := range vals {
			if _, ok := out[k]; !ok {
				extra = append(extra, k)
			}
		}
		sort.Strings(extra)
		return nil, fmt.Errorf("unlisted metrics measured: %v", extra)
	}
	return out, nil
}
