// Command perfbench is the repository's benchmark. It runs one of three
// seeded workloads (gups-hemem, gups-mm, fleet) built from the
// simulator's layer APIs, repeating whole episodes (set-up plus timed
// span) for the requested number of seconds, and prints one JSON result
// as the last line of standard output.
//
// With -trace 0 it reports end-to-end host-time metrics from untraced
// episodes, corrected for the shared host's momentary speed by a probe
// run between chunks of each timed span (probe.go). With -trace 1 it alternates untraced and traced episodes and
// reports per-layer metrics from spans recorded around calls into each
// layer, plus a CPU profile split by package. Every episode's simulated
// outcome is checked for correctness and fingerprinted; the fingerprint
// must repeat exactly for the same seed, within a run, between traced
// and untraced episodes, and across runs of the same binary.
//
//	bash perfbench/run.sh --workload gups-hemem --seed 1 --seconds 35 --trace 0
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool           `json:"correct"`
	Attempted int            `json:"attempted"`
	Failed    int            `json:"failed"`
	Metrics   map[string]any `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: gups-hemem, gups-mm or fleet")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 35, "host seconds to measure for")
	trace := fs.Int("trace", 0, "0: end-to-end metrics from untraced episodes; 1: per-layer metrics from traced episodes")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench-out"), "directory for spans, CPU profiles and fingerprints")
	desc := fs.Bool("describe", false, "print the metric table as Markdown and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *desc {
		describe(stdout)
		return 0
	}
	w, ok := workloadByName(*name)
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: need -workload (gups-hemem, gups-mm, fleet), -trace 0|1 and -seconds > 0\n")
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "perfbench: workload=%s seed=%d seconds=%g trace=%d nproc=%d gomaxprocs=%d go=%s\n",
		w.name, *seed, *seconds, *trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())

	p, err := newProbe()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	b := &bench{w: w, seed: *seed, out: *out, log: stdout, probe: p, t0: time.Now()}
	var vals map[string]float64
	var defs []metricDef
	if *trace == 0 {
		vals, err = b.untraced(time.Duration(*seconds * float64(time.Second)))
		defs = endToEnd
	} else {
		vals, err = b.traced(time.Duration(*seconds * float64(time.Second)))
		defs = perLayer
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	b.checkFingerprint()
	if err := b.writeEpisodes(*trace); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if *trace == 0 {
		vals["check_pass_frac"] = 1 - b.chk.failFrac()
	} else {
		vals["check_fail_frac"] = b.chk.failFrac()
	}
	m, err := report(defs, vals)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	for _, msg := range b.chk.msgs {
		fmt.Fprintf(stdout, "check failed: %s\n", msg)
	}
	fmt.Fprintf(stdout, "fingerprint: %s\n", b.fingerprint())
	line, err := json.Marshal(result{
		Correct: b.chk.failed == 0, Attempted: b.chk.attempted, Failed: b.chk.failed, Metrics: m,
	})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// bench holds one run's state: the workload, the seed, and the checks
// and reference outcome accumulated over its episodes.
type bench struct {
	w    workload
	seed uint64
	out  string
	log  io.Writer
	chk  checker
	// probe is shared by the run's episodes.
	probe *probe
	// ref is the first completed episode's outcome; every later
	// episode of the run, traced or not, must reproduce it exactly.
	ref    *outcome
	digest uint64
	// t0 is the run's start; epLog holds one line per completed episode.
	t0    time.Time
	epLog []string
}

// episodeResult is one episode's measurements.
type episodeResult struct {
	setup, span float64 // host seconds; span excludes probe bursts
	probeNs     float64 // mean probe update time over the span, ns
	sim         float64 // simulated seconds
	alloc       float64 // heap bytes allocated in set-up and timed span
	spanAlloc   float64 // heap bytes allocated in the timed span alone
	heapPeak    float64 // bytes of live heap, max of after-setup and after-run
	out         outcome
	st          *stepper
	tr          *tracer
	cpu         map[string]float64
	profile     []byte
}

func (r *episodeResult) speed() float64 { return r.sim / r.span }

// hostFactor is how much slower than a host whose probe takes
// probeRefNs per update the episode's host ran: (probeNs/probeRefNs)^
// probeExp. See probe.go.
func (r *episodeResult) hostFactor() float64 {
	return math.Pow(r.probeNs/probeRefNs, probeExp)
}

// adjSpeed and adjSetup are speed() and the set-up time corrected to the
// reference host.
func (r *episodeResult) adjSpeed() float64 { return r.speed() * r.hostFactor() }
func (r *episodeResult) adjSetup() float64 { return r.setup / r.hostFactor() }

// episode runs one episode, traced or not, and checks its outcome. A
// panic anywhere in the simulator is recovered and counted as a failed
// check; the episode then reports ok = false.
func (b *bench) episode(traced bool) (r episodeResult, ok bool) {
	defer func() {
		if p := recover(); p != nil {
			pprof.StopCPUProfile() // a no-op unless the panic interrupted profiling
			b.chk.check(false, "%s: episode panicked: %v", b.w.name, p)
			ok = false
		}
	}()
	if traced {
		r.tr = newTracer()
	}
	ep := b.w.build(b.seed, r.tr)
	ep.stepStats().probe = b.probe
	runtime.GC() // the previous episode's garbage is not this set-up's cost
	a0 := allocBytes()
	// The collector is paused for set-up: whether and where a cycle
	// lands in a few milliseconds of set-up is luck, and tripled its
	// spread. The set-up's allocation is gated by alloc_bytes_per_sim_s,
	// and liveHeap below collects it before the timed span.
	func() {
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		t0 := time.Now()
		ep.setup()
		r.setup = time.Since(t0).Seconds()
	}()
	r.heapPeak = liveHeap()

	var prof bytes.Buffer
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			panic(fmt.Sprintf("cpu profile: %v", err))
		}
	}
	a1 := allocBytes()
	b.probe.reset()
	t1 := time.Now()
	ep.run()
	r.span = (time.Since(t1) - b.probe.spent).Seconds()
	r.probeNs = b.probe.nsPerOp()
	a2 := allocBytes()
	r.alloc, r.spanAlloc = a2-a0, a2-a1
	if traced {
		pprof.StopCPUProfile()
		r.profile = prof.Bytes()
		cpu, err := flatCPU(r.profile)
		if err != nil {
			panic(err)
		}
		r.cpu = cpu
	}
	r.heapPeak = math.Max(r.heapPeak, liveHeap())
	r.sim = ep.simSeconds()
	r.out = ep.outcome()
	r.st = ep.stepStats()
	b.checkEpisode(&r)
	b.epLog = append(b.epLog, fmt.Sprintf("%.3f\t%v\t%.6f\t%.6f\t%.6g\t%.6g\t%.6f\t%.6g",
		t1.Sub(b.t0).Seconds(), traced, r.setup, r.span, r.speed(), r.probeNs, r.adjSetup(), r.adjSpeed()))
	return r, true
}

// checkEpisode runs the outcome invariants and compares the outcome with
// the run's reference; traced episodes also check their trace.
func (b *bench) checkEpisode(r *episodeResult) {
	name := b.w.name
	b.chk.checkOutcome(name, r.out)
	b.chk.check(r.st.violations == 0, "%s: auditor reported %d violations", name, r.st.violations)
	if b.ref == nil {
		o := r.out
		b.ref, b.digest = &o, o.digest()
	} else {
		d := r.out.digest()
		b.chk.check(d == b.digest, "%s: outcome digest %x (traced=%v) != first episode's %x\n  got  %+v\n  want %+v",
			name, d, r.tr != nil, b.digest, r.out, *b.ref)
	}
	if tr := r.tr; tr != nil {
		step := tr.agg[spStep]
		b.chk.check(step.self+tr.inStepSelf == step.total,
			"%s: step self %d + children %d != step total %d ns", name, step.self, tr.inStepSelf, step.total)
		b.chk.check(tr.observes == int64(r.out.Ingested),
			"%s: policy observed %d samples, core counted %d", name, tr.observes, r.out.Ingested)
	}
}

// untraced runs untraced episodes for d and returns the end-to-end
// metrics except check_pass_frac.
func (b *bench) untraced(d time.Duration) (map[string]float64, error) {
	var setup, setupRaw, speed, adj, heap, alloc []float64
	start := time.Now()
	for n := 0; n == 0 || time.Since(start) < d; n++ {
		r, ok := b.episode(false)
		if !ok {
			continue
		}
		setup = append(setup, r.adjSetup())
		setupRaw = append(setupRaw, r.setup)
		speed = append(speed, r.speed())
		adj = append(adj, r.adjSpeed())
		heap = append(heap, r.heapPeak/(1<<20))
		alloc = append(alloc, r.alloc/r.sim)
	}
	if len(speed) == 0 {
		return nil, errors.New("no episode completed")
	}
	fmt.Fprintf(b.log, "perfbench: %d episodes; uncorrected: sim_speed %.4g (%.4g..%.4g), setup %.4g s (%.4g..%.4g); corrected: sim_speed_adj %.4g (%.4g..%.4g), setup_s %.4g (%.4g..%.4g)\n",
		len(speed), median(speed), minOf(speed), maxOf(speed), median(setupRaw), minOf(setupRaw), maxOf(setupRaw),
		median(adj), minOf(adj), maxOf(adj), median(setup), minOf(setup), maxOf(setup))
	return map[string]float64{
		"setup_s":               median(setup),
		"sim_speed_adj":         median(adj),
		"heap_peak_mb":          median(heap),
		"alloc_bytes_per_sim_s": median(alloc),
	}, nil
}

// traced alternates untraced and traced episodes for d (at least one of
// each) and returns the per-layer metrics except check_fail_frac. Times
// come from one episode, the traced episode with the median timed span,
// so they share one host state and add up exactly.
func (b *bench) traced(d time.Duration) (map[string]float64, error) {
	var plain, plainRaw, plainSetup, plainProbe, plainAlloc, tracedSpeed []float64
	var eps []episodeResult
	start := time.Now()
	for i := 0; i < 2 || time.Since(start) < d; i++ {
		r, ok := b.episode(i%2 == 1)
		if !ok {
			continue
		}
		if r.tr == nil {
			plain = append(plain, r.adjSpeed())
			plainRaw = append(plainRaw, r.speed())
			plainSetup = append(plainSetup, r.setup)
			plainProbe = append(plainProbe, r.probeNs)
			plainAlloc = append(plainAlloc, r.spanAlloc/r.sim)
			continue
		}
		tracedSpeed = append(tracedSpeed, r.adjSpeed())
		eps = append(eps, r)
	}
	if len(eps) == 0 || len(plain) == 0 {
		return nil, errors.New("no traced or no untraced episode completed")
	}
	sort.Slice(eps, func(i, j int) bool { return eps[i].span < eps[j].span })
	rep := &eps[len(eps)/2]
	if err := rep.tr.writeSpans(filepath.Join(b.out, b.w.name+".spans.tsv")); err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(b.out, b.w.name+".cpu.pprof"), rep.profile, 0o644); err != nil {
		return nil, err
	}
	vals := layerCounts(*rep)
	tr := rep.tr
	sec := func(ns int64) float64 { return float64(ns) / 1e9 }
	for name, s := range map[string]span{
		"machine.step_s": spStep, "machine.audit_s": spAudit, "core.poll_s": spPoll,
		"core.policy_tick_s": spPolicyTick, "core.page_in_s": spPageIn,
		"memmode.page_in_s": spMMPageIn, "memmode.observe_s": spMMObserve,
		"memmode.cost_s": spMMCost, "tenant.admit_s": spAdmit,
		"tenant.depart_s": spDepart, "gups.shift_s": spShift,
	} {
		vals[name] = sec(tr.agg[s].total)
	}
	vals["machine.self_s"] = sec(tr.agg[spStep].self)
	vals["trace.step_children_s"] = sec(tr.inStepSelf)
	for name, p := range map[string]float64{"machine.step_us.p50": 0.5, "machine.step_us.p999": 0.999} {
		v, err := percentile(tr.stepDur, p)
		if err != nil {
			return nil, err
		}
		vals[name] = v
	}
	for _, bucket := range cpuBuckets {
		vals["cpu."+bucket+"_s"] = rep.cpu[bucket]
	}
	vals["trace.overhead_frac"] = 1 - median(tracedSpeed)/median(plain)
	vals["alloc.span_bytes_per_sim_s"] = median(plainAlloc)
	vals["host.sim_speed"] = median(plainRaw)
	vals["host.setup_s"] = median(plainSetup)
	vals["host.probe_ns"] = median(plainProbe)
	fmt.Fprintf(b.log, "perfbench: %d untraced + %d traced episodes, sim_speed_adj untraced %.4g traced %.4g\n",
		len(plain), len(tracedSpeed), median(plain), median(tracedSpeed))
	return vals, nil
}

// layerCounts returns the per-layer work counts of one traced episode;
// they are exact and identical in every traced episode of a run.
func layerCounts(r episodeResult) map[string]float64 {
	o, tr, st := r.out, r.tr, r.st
	frac := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	var gupsScore, gold, be float64
	if len(o.Scores) == 1 {
		gupsScore = o.Scores[0]
	} else {
		gold, be = o.Scores[0], o.Scores[1]
	}
	return map[string]float64{
		"machine.steps":           float64(tr.agg[spStep].count),
		"machine.faults":          float64(o.Faults),
		"machine.audits":          float64(o.Audits),
		"machine.mig.pages":       float64(o.MigPages),
		"machine.mig.promotions":  float64(o.MigPromotions),
		"machine.mig.demotions":   float64(o.MigDemotions),
		"machine.mig.queue_peak":  float64(st.queuePeak),
		"pebs.pushed":             float64(o.PEBSPushed),
		"pebs.dropped":            float64(o.PEBSDropped),
		"pebs.ingest_frac":        frac(float64(o.Ingested), float64(o.PEBSPushed)),
		"core.observes":           float64(tr.observes),
		"core.policy_ticks":       float64(tr.agg[spPolicyTick].count),
		"core.page_ins":           float64(tr.agg[spPageIn].count),
		"core.promotions":         float64(o.CorePromotions),
		"core.demotions":          float64(o.CoreDemotions),
		"core.cool_epochs":        float64(o.CoolEpochs),
		"memmode.cost_calls":      float64(tr.agg[spMMCost].count),
		"memmode.page_ins":        float64(tr.agg[spMMPageIn].count),
		"memmode.rows_built":      float64(o.RowsBuilt),
		"memmode.rows_reused":     float64(o.RowsReused),
		"memmode.row_reuse_frac":  frac(float64(o.RowsReused), float64(o.RowsBuilt+o.RowsReused)),
		"tenant.admitted":         float64(o.Admitted),
		"tenant.queued":           float64(o.Queued),
		"tenant.rejected":         float64(o.Rejected),
		"tenant.departed":         float64(o.Departed),
		"vm.metadata_bytes":       float64(o.MetadataBytes),
		"gups.shifts":             float64(tr.agg[spShift].count),
		"trace.spans":             float64(spanCount(tr)),
		"score.gups":              gupsScore,
		"score.gold_p99_ns":       gold,
		"score.besteffort_p99_ns": be,
		"fingerprint.digest":      float64(o.digest()),
	}
}

func spanCount(tr *tracer) int64 {
	var n int64
	for _, a := range tr.agg {
		n += a.count
	}
	return n
}

// writeEpisodes records every episode of the run, so a reader can see
// the samples behind each reported figure.
func (b *bench) writeEpisodes(trace int) error {
	path := filepath.Join(b.out, fmt.Sprintf("%s-seed%d-trace%d.episodes.tsv", b.w.name, b.seed, trace))
	body := "start_s\ttraced\tsetup_raw_s\tspan_s\tsim_speed\tprobe_ns\tsetup_s\tsim_speed_adj\n" + strings.Join(b.epLog, "\n") + "\n"
	return os.WriteFile(path, []byte(body), 0o644)
}

// fingerprint renders the run's reference outcome and digest.
func (b *bench) fingerprint() string {
	if b.ref == nil {
		return "none"
	}
	return fmt.Sprintf("%s seed=%d digest=%d %+v", b.w.name, b.seed, b.digest, *b.ref)
}

// checkFingerprint compares the run's fingerprint with the one an
// earlier run of the same binary, workload and seed left in the output
// directory, and leaves its own for later runs. Runs of another build
// are keyed apart, so a behaviour change between commits is reported by
// comparing their fingerprints, not flagged here.
func (b *bench) checkFingerprint() {
	if b.ref == nil {
		return
	}
	key, err := binaryKey()
	if err != nil {
		b.chk.check(false, "fingerprint: %v", err)
		return
	}
	path := filepath.Join(b.out, fmt.Sprintf("fingerprint-%s-%s-%d.txt", key, b.w.name, b.seed))
	fp := b.fingerprint()
	if prev, err := os.ReadFile(path); err == nil {
		b.chk.check(string(prev) == fp, "fingerprint differs from an earlier run of this binary:\n  now  %s\n  then %s", fp, prev)
		return
	}
	if err := os.WriteFile(path, []byte(fp), 0o644); err != nil {
		b.chk.check(false, "fingerprint: %v", err)
	}
}

// binaryKey identifies the running executable by content.
func binaryKey() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// liveHeap collects garbage and returns the live heap in bytes.
func liveHeap() float64 {
	runtime.GC()
	return readMetric("/gc/heap/live:bytes")
}

// allocBytes returns cumulative heap bytes allocated.
func allocBytes() float64 { return readMetric("/gc/heap/allocs:bytes") }

func readMetric(name string) float64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		panic("runtime metric " + name + " unavailable")
	}
	return float64(s[0].Value.Uint64())
}
