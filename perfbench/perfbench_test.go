package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"github.com/tieredmem/hemem/internal/core"
	"github.com/tieredmem/hemem/internal/machine"
	"github.com/tieredmem/hemem/internal/sim"
)

// shortEpisode builds an episode of w cut to a few simulated seconds.
func shortEpisode(t *testing.T, w workload, seed uint64, tr *tracer) episode {
	t.Helper()
	ep := w.build(seed, tr)
	switch e := ep.(type) {
	case *gupsHeMem:
		e.span = 2 * gupsHeMemShift
	case *gupsMM:
		e.span = 3 * sim.Second
	case *fleet:
		e.span = 1 * sim.Second
	default:
		t.Fatalf("unknown episode type %T", ep)
	}
	return ep
}

func runEpisode(ep episode) outcome {
	ep.setup()
	ep.run()
	return ep.outcome()
}

// The traced wrappers must not change behaviour: the same seed gives the
// same outcome digest with and without them.
func TestWrappersTransparent(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			plain := runEpisode(shortEpisode(t, w, 7, nil))
			tr := newTracer()
			traced := runEpisode(shortEpisode(t, w, 7, tr))
			if plain.digest() != traced.digest() {
				t.Fatalf("traced outcome differs:\n  plain  %+v\n  traced %+v", plain, traced)
			}
			if tr.agg[spStep].count == 0 {
				t.Fatal("traced episode recorded no steps")
			}
			if st := tr.agg[spStep]; st.self+tr.inStepSelf != st.total {
				t.Fatalf("step self %d + children %d != total %d", st.self, tr.inStepSelf, st.total)
			}
		})
	}
}

// Cutting the timed span into chunks with probe bursts between them must
// not change behaviour either.
func TestChunkedProbeTransparent(t *testing.T) {
	p, err := newProbe()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			whole := shortEpisode(t, w, 7, nil)
			whole.stepStats().chunk = 0
			chunked := shortEpisode(t, w, 7, nil)
			chunked.stepStats().chunk = sim.Second / 4
			chunked.stepStats().probe = p
			p.reset()
			a, b := runEpisode(whole), runEpisode(chunked)
			if a.digest() != b.digest() {
				t.Fatalf("chunked outcome differs:\n  whole   %+v\n  chunked %+v", a, b)
			}
			if p.ops == 0 || p.nsPerOp() <= 0 {
				t.Fatalf("no probe burst ran: %d ops", p.ops)
			}
		})
	}
}

// The correction is the identity on a host at the reference probe time;
// on a slower host it raises the speed and lowers the set-up time.
func TestHostCorrection(t *testing.T) {
	r := episodeResult{sim: 300, span: 1.5, setup: 0.04, probeNs: probeRefNs}
	if r.adjSpeed() != r.speed() || r.adjSetup() != r.setup {
		t.Errorf("at the reference probe time: speed %v -> %v, setup %v -> %v", r.speed(), r.adjSpeed(), r.setup, r.adjSetup())
	}
	r.probeNs = 2 * probeRefNs
	f := math.Pow(2, probeExp)
	if got, want := r.adjSpeed(), r.speed()*f; math.Abs(got-want) > 1e-9*want {
		t.Errorf("adjSpeed on a host twice as slow = %v, want %v", got, want)
	}
	if got, want := r.adjSetup(), r.setup/f; math.Abs(got-want) > 1e-9*want {
		t.Errorf("adjSetup on a host twice as slow = %v, want %v", got, want)
	}
}

// A wrapper embeds its manager, so it satisfies exactly the optional
// interfaces the machine type-asserts that the manager itself does.
func TestWrappersKeepMethodSet(t *testing.T) {
	ifaces := []reflect.Type{
		reflect.TypeOf((*machine.Brancher)(nil)).Elem(),
		reflect.TypeOf((*machine.CostModeler)(nil)).Elem(),
		reflect.TypeOf((*machine.FaultHandler)(nil)).Elem(),
		reflect.TypeOf((*machine.MigrationFailureObserver)(nil)).Elem(),
		reflect.TypeOf((*machine.MigrationObserver)(nil)).Elem(),
		reflect.TypeOf((*machine.Releaser)(nil)).Elem(),
		reflect.TypeOf((*machine.SampleSource)(nil)).Elem(),
		reflect.TypeOf((*machine.TenantManager)(nil)).Elem(),
		reflect.TypeOf((*machine.TierEventHandler)(nil)).Elem(),
		reflect.TypeOf((*machine.TrafficObserver)(nil)).Elem(),
		reflect.TypeOf((*machine.UsedReporter)(nil)).Elem(),
	}
	tr := newTracer()
	hw, h := newHeMem(core.DefaultConfig(), tr)
	mw, mm := newMM(tr)
	for _, pair := range [][2]any{{hw, h}, {mw, mm}} {
		wrapped, inner := reflect.TypeOf(pair[0]), reflect.TypeOf(pair[1])
		for _, it := range ifaces {
			if wrapped.Implements(it) != inner.Implements(it) {
				t.Errorf("%v implements %v: %v, but %v: %v", wrapped, it, wrapped.Implements(it), inner, inner.Implements(it))
			}
		}
	}
	if name := h.Policy().Name(); name != "hemem" {
		t.Errorf("traced policy reports name %q, want hemem", name)
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, err := percentile(xs, 0.9); err != nil || v != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90 with 10 beyond", v, err)
	}
	if _, err := percentile(xs, 0.95); err == nil {
		t.Error("p95 of 100 samples has 5 beyond it and must be refused")
	}
	if v, err := percentile(xs, 0.5); err != nil || v != 50 {
		t.Errorf("p50 of 1..100 = %v, %v; want 50", v, err)
	}
	big := make([]float64, 9999)
	if _, err := percentile(big, 0.999); err == nil {
		t.Error("p99.9 of 9999 samples has 9 beyond it and must be refused")
	}
	if _, err := percentile(append(big, 0), 0.999); err != nil {
		t.Errorf("p99.9 of 10000 samples: %v", err)
	}
}

// A perturbed digest or conservation count must raise the failure
// fraction.
func TestPerturbationFailsChecks(t *testing.T) {
	w, _ := workloadByName("gups-hemem")
	good := runEpisode(shortEpisode(t, w, 3, nil))

	fresh := func() *bench {
		b := &bench{w: w, seed: 3}
		b.checkEpisode(&episodeResult{out: good, st: &stepper{}})
		if b.chk.failed != 0 {
			t.Fatalf("unperturbed episode failed: %v", b.chk.msgs)
		}
		return b
	}
	perturb := map[string]func(o *outcome){
		"score":    func(o *outcome) { o.Scores = []float64{o.Scores[0] * (1 + 1e-12)} },
		"pebs":     func(o *outcome) { o.PEBSBuffered++ },
		"ingested": func(o *outcome) { o.Ingested-- },
		"mig":      func(o *outcome) { o.MigPages++ },
		"zero":     func(o *outcome) { o.Scores = []float64{o.Scores[0] * 0} },
	}
	for name, f := range perturb {
		b := fresh()
		bad := good
		bad.Scores = append([]float64(nil), good.Scores...)
		f(&bad)
		b.checkEpisode(&episodeResult{out: bad, st: &stepper{}})
		if b.chk.failFrac() == 0 {
			t.Errorf("%s: perturbed outcome passed every check", name)
		}
	}
	b := fresh()
	b.checkEpisode(&episodeResult{out: good, st: &stepper{violations: 1}})
	if b.chk.failFrac() == 0 {
		t.Error("an audit violation passed every check")
	}
}

// BENCHMARK.json must list exactly the metrics the program reports.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads %v, program has %v", names, want)
	}
	for _, c := range []struct {
		got  []struct{ Name, Unit, Better string }
		want []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("BENCHMARK.json lists %d metrics, program reports %d", len(c.got), len(c.want))
			continue
		}
		for i, d := range c.want {
			g := c.got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("metric %d: BENCHMARK.json %+v, program %s %s %s", i, g, d.name, d.unit, d.better)
			}
		}
	}
}

func TestFlatCPUParsesProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("cpu profiling unavailable:", err)
	}
	w, _ := workloadByName("gups-mm")
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		runEpisode(shortEpisode(t, w, 1, nil))
	}
	pprof.StopCPUProfile()
	cpu, err := flatCPU(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, b := range cpuBuckets {
		total += cpu[b]
	}
	if total <= 0 || len(cpu) != len(cpuBuckets) {
		t.Fatalf("flat CPU %v: want every bucket and a positive total", cpu)
	}
}

func TestCPUBucket(t *testing.T) {
	for fn, want := range map[string]string{
		"github.com/tieredmem/hemem/internal/machine.(*Machine).feedSamples": "machine.feed",
		"github.com/tieredmem/hemem/internal/machine.(*Migrator).advance":    "machine.migrate",
		"github.com/tieredmem/hemem/internal/machine.(*Machine).Audit":       "machine.audit",
		"github.com/tieredmem/hemem/internal/machine.(*Machine).stepBody":    "machine.solver",
		"github.com/tieredmem/hemem/internal/sim.(*Rand).PoissonCached":      "sim",
		"github.com/tieredmem/hemem/internal/shard.(*Pool).Run":              "other",
		"runtime.mallocgc":    "runtime",
		"main.(*tracer).end":  "other",
		"main.(*probe).burst": "probe",
	} {
		if got := cpuBucket(fn); got != want {
			t.Errorf("cpuBucket(%s) = %s, want %s", fn, got, want)
		}
	}
	if !strings.HasPrefix(perLayer[len(perLayer)-1].name, "cpu.") {
		t.Error("cpu bucket metrics missing from perLayer")
	}
}
