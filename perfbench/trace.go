package main

import (
	"bufio"
	"fmt"
	"os"
	"time"

	"github.com/tieredmem/hemem/internal/core"
	"github.com/tieredmem/hemem/internal/machine"
	"github.com/tieredmem/hemem/internal/memmode"
	"github.com/tieredmem/hemem/internal/vm"
)

// span names one layer boundary the traced run times. Spans are recorded
// from this package only, around calls into each layer's public API.
type span int8

const (
	spStep       span = iota // machine.Machine.Step
	spAudit                  // machine.Machine.Audit, called after each Step
	spPoll                   // core.HeMem.OnQuantum (tracker ingest)
	spPolicyTick             // core.Policy.Tick (fires from the event queue)
	spPageIn                 // core.HeMem.PageIn
	spMMPageIn               // memmode.MemoryMode.PageIn
	spMMObserve              // memmode.MemoryMode.ObserveTraffic
	spMMCost                 // memmode.MemoryMode.ComponentCost
	spAdmit                  // machine.TenantRuntime.Admit
	spDepart                 // machine.TenantRuntime.Depart
	spShift                  // gups.GUPS.ShiftHotSet
	numSpans
)

var spanNames = [numSpans]string{
	"machine.step", "machine.audit", "core.poll", "core.policy_tick",
	"core.page_in", "memmode.page_in", "memmode.observe", "memmode.cost",
	"tenant.admit", "tenant.depart", "gups.shift",
}

// spanAgg is the running total for one span name.
type spanAgg struct {
	count int64
	total int64 // ns
	self  int64 // ns: total minus the time covered by child spans
}

// spanRec is one kept span: name, start and end (ns since the tracer
// started), and the index of its parent in the kept list (-1 for a root
// or a parent that was not kept).
type spanRec struct {
	name       span
	start, end int64
	parent     int32
}

type frame struct {
	name  span
	start int64
	child int64 // ns covered by direct children
	kept  int32 // index in tracer.kept, or -1
}

// maxKept bounds the spans kept for export; aggregates and step
// durations cover every span regardless.
const maxKept = 1 << 15

// tracer records nested spans in memory. Aggregates are exact over all
// spans; individual records are kept up to maxKept. A nil *tracer is a
// valid no-op, which is what untraced episodes carry.
type tracer struct {
	t0      time.Time
	stack   []frame
	agg     [numSpans]spanAgg
	kept    []spanRec
	stepDur []float64 // µs per machine.step span
	// inStepSelf sums the self time of every span nested inside a
	// machine.step span, so step self + inStepSelf = step total.
	inStepSelf int64
	stepOpen   bool
	// observes counts core.Policy.Observe calls, one per ingested
	// sample; they are counted, not timed.
	observes int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) begin(name span) {
	if t == nil {
		return
	}
	f := frame{name: name, kept: -1}
	if len(t.kept) < maxKept {
		parent := int32(-1)
		if n := len(t.stack); n > 0 {
			parent = t.stack[n-1].kept
		}
		f.kept = int32(len(t.kept))
		t.kept = append(t.kept, spanRec{name: name, parent: parent})
	}
	if name == spStep {
		t.stepOpen = true
	}
	f.start = t.now()
	t.stack = append(t.stack, f)
}

func (t *tracer) end() {
	if t == nil {
		return
	}
	end := t.now()
	n := len(t.stack) - 1
	f := t.stack[n]
	t.stack = t.stack[:n]
	d := end - f.start
	a := &t.agg[f.name]
	a.count++
	a.total += d
	a.self += d - f.child
	if n > 0 {
		t.stack[n-1].child += d
	}
	if f.kept >= 0 {
		t.kept[f.kept].start, t.kept[f.kept].end = f.start, end
	}
	if f.name == spStep {
		t.stepOpen = false
		t.stepDur = append(t.stepDur, float64(d)/1e3)
	} else if t.stepOpen {
		t.inStepSelf += d - f.child
	}
}

// writeSpans writes the kept spans as tab-separated lines:
// index, name, start ns, end ns, parent index.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "index\tname\tstart_ns\tend_ns\tparent")
	for i, s := range t.kept {
		fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%d\n", i, spanNames[s.name], s.start, s.end, s.parent)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// The manager wrappers embed the concrete manager so the method set the
// machine sees is unchanged: machine type-asserts a dozen optional
// interfaces (CostModeler, TrafficObserver, SampleSource, TenantManager,
// UsedReporter, ...), and a generic machine.Manager wrapper would
// silently change which of its paths run. Each wrapper overrides only
// the methods it times.

// tracedHeMem times HeMem's quantum work and page placement.
type tracedHeMem struct {
	*core.HeMem
	tr *tracer
}

func (h *tracedHeMem) OnQuantum(now, dt int64) {
	h.tr.begin(spPoll)
	h.HeMem.OnQuantum(now, dt)
	h.tr.end()
}

func (h *tracedHeMem) PageIn(p *vm.Page) {
	h.tr.begin(spPageIn)
	h.HeMem.PageIn(p)
	h.tr.end()
}

// tracedMM times Memory Mode's traffic model, cost model and placement.
type tracedMM struct {
	*memmode.MemoryMode
	tr *tracer
}

func (mm *tracedMM) PageIn(p *vm.Page) {
	mm.tr.begin(spMMPageIn)
	mm.MemoryMode.PageIn(p)
	mm.tr.end()
}

func (mm *tracedMM) ObserveTraffic(now int64, comps []machine.Component, occRates []float64) {
	mm.tr.begin(spMMObserve)
	mm.MemoryMode.ObserveTraffic(now, comps, occRates)
	mm.tr.end()
}

func (mm *tracedMM) ComponentCost(c machine.Component) machine.CompCost {
	mm.tr.begin(spMMCost)
	cc := mm.MemoryMode.ComponentCost(c)
	mm.tr.end()
	return cc
}

// tracedPolicyName registers the timing policy. The policy tick fires
// from the machine's event queue, not from a manager method, so it can
// only be timed by the policy itself.
const tracedPolicyName = "perfbench-hemem"

func init() {
	core.RegisterPolicy(tracedPolicyName, func(cfg core.Config) core.Policy {
		cfg.Policy = "hemem"
		return &tracedPolicy{Policy: core.New(cfg).Policy()}
	})
}

// tracedPolicy delegates to a hemem policy instance, timing Tick and
// counting (not timing) Observe, which runs once per ingested sample.
type tracedPolicy struct {
	core.Policy
	tr *tracer
}

func (p *tracedPolicy) Observe(pi *core.PageInfo, write bool, n int) {
	p.tr.observes++
	p.Policy.Observe(pi, write, n)
}

func (p *tracedPolicy) Tick(now, budget int64) {
	p.tr.begin(spPolicyTick)
	p.Policy.Tick(now, budget)
	p.tr.end()
}

// newHeMem builds a HeMem manager from cfg. With a tracer it returns the
// timing wrapper around a HeMem whose policy is the timing policy.
func newHeMem(cfg core.Config, tr *tracer) (machine.Manager, *core.HeMem) {
	if tr == nil {
		h := core.New(cfg)
		return h, h
	}
	cfg.Policy = tracedPolicyName
	h := core.New(cfg)
	h.Policy().(*tracedPolicy).tr = tr
	return &tracedHeMem{HeMem: h, tr: tr}, h
}

// newMM builds a Memory Mode manager, wrapped when traced.
func newMM(tr *tracer) (machine.Manager, *memmode.MemoryMode) {
	mm := memmode.New()
	if tr == nil {
		return mm, mm
	}
	return &tracedMM{MemoryMode: mm, tr: tr}, mm
}
