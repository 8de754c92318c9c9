package main

import (
	"fmt"

	"github.com/tieredmem/hemem/internal/core"
	"github.com/tieredmem/hemem/internal/gups"
	"github.com/tieredmem/hemem/internal/machine"
	"github.com/tieredmem/hemem/internal/mem"
	"github.com/tieredmem/hemem/internal/memmode"
	"github.com/tieredmem/hemem/internal/sim"
	"github.com/tieredmem/hemem/internal/vm"
)

// An episode is one seeded instance of a workload. setup builds the
// machines, maps and touches the working sets and warms them; run
// advances simulated time (the timed span); outcome reads the simulated
// result. Every episode runs on the calling goroutine with the default
// single-shard machine, so host time measures the simulator and not the
// scheduler.
type episode interface {
	setup()
	run()
	simSeconds() float64
	outcome() outcome
	stepStats() *stepper
}

// workload names one benchmark input family and how to build an episode
// of it from a seed; tr is nil for an untraced episode.
type workload struct {
	name  string
	build func(seed uint64, tr *tracer) episode
}

var workloads = []workload{
	{"gups-hemem", func(seed uint64, tr *tracer) episode {
		return &gupsHeMem{seed: seed, span: gupsHeMemSpan, st: stepper{tr: tr, chunk: gupsHeMemShift}}
	}},
	{"gups-mm", func(seed uint64, tr *tracer) episode {
		return &gupsMM{seed: seed, span: gupsMMSpan, st: stepper{tr: tr, chunk: gupsMMChunk}}
	}},
	{"fleet", func(seed uint64, tr *tracer) episode {
		return &fleet{seed: seed, span: fleetSpan, st: stepper{tr: tr, chunk: fleetChunk}}
	}},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// stepper advances machines in chunks of chunk simulated ns (all of it
// at once when chunk is 0), with a probe burst after each chunk; probe
// is nil in tests. Each workload's chunk is about 0.1 host seconds, so
// the bursts sample the host state the simulator ran in at ~1% cost. Untraced it is Machine.Run, whose fixed-quantum steps
// do not depend on how the span is cut as long as chunks are whole
// quanta. Traced it replays Run's loop with a span around every Step,
// and when audit is set it calls Machine.Audit after each Step itself
// (the traced episode turns the machine's own per-quantum auditor off,
// so audit time shows as its own span rather than inside Step).
type stepper struct {
	tr         *tracer
	probe      *probe
	chunk      int64
	audit      bool
	audits     int64
	violations int64
	queuePeak  int
}

func (s *stepper) advance(m *machine.Machine, d int64) {
	for d > 0 {
		c := d
		if s.chunk > 0 && s.chunk < d {
			c = s.chunk
		}
		s.step(m, c)
		s.probe.burst()
		d -= c
	}
}

func (s *stepper) step(m *machine.Machine, d int64) {
	if s.tr == nil {
		m.Run(d)
		return
	}
	end := m.Clock.Now() + d
	for m.Clock.Now() < end {
		dt := m.Cfg.Quantum
		if left := end - m.Clock.Now(); left < dt {
			dt = left
		}
		s.tr.begin(spStep)
		m.Step(dt)
		s.tr.end()
		if q := m.Migrator.QueueLen(); q > s.queuePeak {
			s.queuePeak = q
		}
		if s.audit {
			s.tr.begin(spAudit)
			vs := m.Audit()
			s.tr.end()
			s.audits++
			s.violations += int64(len(vs))
		}
	}
}

// gupsHeMem is GUPS under HeMem (default PEBS tracker, hemem policy):
// 16 threads over a 512 GB working set with a 16 GB hot set that shifts
// by 8 GB every 30 simulated seconds (the paper's Fig 9 dynamic hot
// set), so tracker ingest, the policy tick and the migrator keep working.
type gupsHeMem struct {
	seed uint64
	span int64 // simulated ns, a multiple of gupsHeMemShift
	st   stepper
	m    *machine.Machine
	h    *core.HeMem
	g    *gups.GUPS
}

const (
	gupsHeMemSpan  = 300 * sim.Second
	gupsHeMemShift = 30 * sim.Second
)

func (e *gupsHeMem) setup() {
	mgr, h := newHeMem(core.DefaultConfig(), e.st.tr)
	cfg := machine.DefaultConfig()
	cfg.Seed = e.seed
	e.m, e.h = machine.New(cfg, mgr), h
	e.g = gups.New(e.m, gups.Config{
		Threads: 16, WorkingSet: 512 * sim.GB, HotSet: 16 * sim.GB, Seed: e.seed,
	})
	e.m.Warm()
}

func (e *gupsHeMem) run() {
	for k := int64(0); k < e.span/gupsHeMemShift; k++ {
		if k > 0 {
			e.st.tr.begin(spShift)
			e.g.ShiftHotSet(8*sim.GB, e.seed+uint64(k))
			e.st.tr.end()
		}
		e.st.advance(e.m, gupsHeMemShift)
	}
}

func (e *gupsHeMem) stepStats() *stepper { return &e.st }

func (e *gupsHeMem) simSeconds() float64 { return float64(e.span) / float64(sim.Second) }

func (e *gupsHeMem) outcome() outcome {
	var o outcome
	o.Scores = []float64{e.g.Score()}
	o.addMachine(e.m)
	o.addHeMem(e.h)
	return o
}

// gupsMM is the same GUPS generator under Memory Mode with Table 2's
// skewed read/write pattern: a 256 GB hot set of which 128 GB is
// write-only, so the cache model's dirty-writeback path is live. core,
// pebs and the migrator stay idle.
type gupsMM struct {
	seed uint64
	span int64
	st   stepper
	m    *machine.Machine
	mm   *memmode.MemoryMode
	g    *gups.GUPS
}

const (
	gupsMMSpan  = 120 * sim.Second
	gupsMMChunk = 10 * sim.Second
)

func (e *gupsMM) setup() {
	mgr, mm := newMM(e.st.tr)
	cfg := machine.DefaultConfig()
	cfg.Seed = e.seed
	e.m, e.mm = machine.New(cfg, mgr), mm
	e.g = gups.New(e.m, gups.Config{
		Threads: 16, WorkingSet: 512 * sim.GB, HotSet: 256 * sim.GB,
		WriteOnlyHot: 128 * sim.GB, Seed: e.seed,
	})
	e.m.Warm()
}

func (e *gupsMM) run() { e.st.advance(e.m, e.span) }

func (e *gupsMM) stepStats() *stepper { return &e.st }

func (e *gupsMM) simSeconds() float64 { return float64(e.span) / float64(sim.Second) }

func (e *gupsMM) outcome() outcome {
	var o outcome
	o.Scores = []float64{e.g.Score()}
	o.addMachine(e.m)
	o.RowsBuilt, o.RowsReused = e.mm.ModelRowStats()
	return o
}

// fleet runs fleetMachines machines one after another, each hosting
// fleetTenants churning gold/silver/besteffort tenants on 1 GB DRAM +
// 16 GB NVM for fleetSpan, with the invariant auditor on every quantum.
// Each machine mirrors one cell of the fleet experiment, rebuilt through
// the public machine and core APIs.
type fleet struct {
	seed     uint64
	span     int64 // per machine
	st       stepper
	machines []*fleetMachine
}

const (
	fleetMachines = 4
	fleetTenants  = 12
	fleetSpan     = 8 * sim.Second
	fleetChunk    = 2 * sim.Second
	fleetDRAM     = 1 * sim.GB
	fleetNVM      = 16 * sim.GB
)

type fleetMachine struct {
	m  *machine.Machine
	h  *core.HeMem
	tr *machine.TenantRuntime
}

func (e *fleet) setup() {
	e.st.audit = e.st.tr != nil
	seeds := sim.NewRand(e.seed)
	for i := 0; i < fleetMachines; i++ {
		e.machines = append(e.machines, e.buildMachine(seeds.Uint64()))
	}
}

func (e *fleet) buildMachine(seed uint64) *fleetMachine {
	rng := sim.NewRand(seed)
	ccfg := core.DefaultConfig()
	// Tenant regions are a few hundred MB, below the default 1 GB
	// growth threshold, and must be manager-tracked to migrate.
	ccfg.LargeAllocThreshold = 64 * sim.MB
	ccfg.FreeDRAMTarget = 64 * sim.MB
	mgr, h := newHeMem(ccfg, e.st.tr)

	mcfg := machine.DefaultConfig()
	mcfg.Seed = seed
	mcfg.Audit = !e.st.audit
	mcfg.Tiers = []machine.TierDesc{
		{ID: vm.TierDRAM, Capacity: fleetDRAM},
		{ID: vm.TierNVM, Capacity: fleetNVM, UEVictim: true},
	}
	m := machine.New(mcfg, mgr)
	tr := m.EnableTenants()

	next := 0
	admit := func(class machine.QoSClass, size int64) {
		next++
		e.st.tr.begin(spAdmit)
		tr.Admit(tenantSpec(fmt.Sprintf("t%d", next), class), func(id vm.TenantID) machine.TenantApp {
			return startTenantApp(m, id, size, rng)
		})
		e.st.tr.end()
	}
	classes := []machine.QoSClass{machine.Gold, machine.Silver, machine.BestEffort}
	drawSize := func() int64 { return (64 + int64(rng.Intn(97))) * 2 * sim.MB } // 128–320 MB
	drawClass := func() machine.QoSClass { return classes[rng.Intn(len(classes))] }
	for i := 0; i < fleetTenants; i++ {
		admit(drawClass(), drawSize())
	}

	// Churn: the longest-lived active tenant departs and a fresh one
	// arrives, at pre-drawn instants.
	events := fleetTenants / 2
	every := e.span / int64(events+1)
	for k := 1; k <= events; k++ {
		at := int64(k)*every + rng.Int63n(every/2)
		class, size := drawClass(), drawSize()
		m.Events.Schedule(at, func(now int64) {
			for id := vm.TenantID(1); int(id) <= tr.NumTenants(); id++ {
				if tr.Active(id) {
					e.st.tr.begin(spDepart)
					tr.Depart(id)
					e.st.tr.end()
					break
				}
			}
			admit(class, size)
		})
	}
	return &fleetMachine{m: m, h: h, tr: tr}
}

// tenantSpec gives gold and silver soft DRAM reservations and caps
// besteffort's DRAM.
func tenantSpec(name string, class machine.QoSClass) machine.TenantSpec {
	spec := machine.TenantSpec{Name: name, Class: class}
	switch class {
	case machine.Gold:
		spec.Reserve[vm.TierDRAM] = 128 * sim.MB
	case machine.Silver:
		spec.Reserve[vm.TierDRAM] = 64 * sim.MB
	default:
		spec.Cap[vm.TierDRAM] = 48 * sim.MB
	}
	return spec
}

// tenantApp is one tenant's workload: 90% of accesses hit a random
// quarter of its region, the rest the other three quarters.
type tenantApp struct {
	name    string
	region  *vm.Region
	comps   []machine.Component
	stopped bool
}

func startTenantApp(m *machine.Machine, id vm.TenantID, size int64, rng *sim.Rand) *tenantApp {
	a := &tenantApp{name: fmt.Sprintf("tenant%d", id)}
	a.region = m.AS.MapOwned(a.name, size, id)
	m.TouchRange(a.region, 0, a.region.NumPages())
	pages := a.region.AllPages()
	perm := rng.Perm(len(pages))
	nHot := len(pages) / 4
	if nHot < 1 {
		nHot = 1
	}
	hot := make([]*vm.Page, 0, nHot)
	cold := make([]*vm.Page, 0, len(pages)-nHot)
	for i, idx := range perm {
		if i < nHot {
			hot = append(hot, pages[idx])
		} else {
			cold = append(cold, pages[idx])
		}
	}
	a.comps = []machine.Component{
		{Set: vm.NewPageSet(a.name+"-hot", hot), Share: 0.9, ReadBytes: 8, WriteBytes: 8, Pattern: mem.Random},
		{Set: vm.NewPageSet(a.name+"-cold", cold), Share: 0.1, ReadBytes: 8, WriteBytes: 8, Pattern: mem.Random},
	}
	m.AddWorkloadFor(a, id)
	return a
}

func (a *tenantApp) Name() string                         { return a.name }
func (a *tenantApp) Threads() int                         { return 1 }
func (a *tenantApp) Components() []machine.Component      { return a.comps }
func (a *tenantApp) OnOps(now int64, ops, opTime float64) {}
func (a *tenantApp) Done() bool                           { return a.stopped }
func (a *tenantApp) Stop()                                { a.stopped = true }
func (a *tenantApp) Regions() []*vm.Region                { return []*vm.Region{a.region} }

func (e *fleet) run() {
	for _, fm := range e.machines {
		e.st.advance(fm.m, e.span)
	}
}

func (e *fleet) stepStats() *stepper { return &e.st }

func (e *fleet) simSeconds() float64 {
	return float64(fleetMachines) * float64(e.span) / float64(sim.Second)
}

// outcome scores the fleet by the gold and besteffort p99 latency over
// every machine's merged class histograms.
func (e *fleet) outcome() outcome {
	var o outcome
	gold, be := sim.NewHistogram(), sim.NewHistogram()
	for _, fm := range e.machines {
		gold.Merge(fm.tr.ClassHist(machine.Gold))
		be.Merge(fm.tr.ClassHist(machine.BestEffort))
		o.addMachine(fm.m)
		o.addHeMem(fm.h)
		ts := fm.tr.Stats()
		o.Admitted += ts.Admitted
		o.Queued += ts.Queued
		o.Rejected += ts.Rejected
		o.Departed += ts.Departed
	}
	o.Scores = []float64{gold.Quantile(0.99), be.Quantile(0.99)}
	o.Audits += e.st.audits
	return o
}
