package machine_test

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"github.com/tieredmem/hemem/internal/core"
	"github.com/tieredmem/hemem/internal/machine"
	"github.com/tieredmem/hemem/internal/mem"
	"github.com/tieredmem/hemem/internal/sim"
	"github.com/tieredmem/hemem/internal/vm"
)

// churnApp is one tenant's workload: an owned region whose last quarter
// takes 90% of the random read-modify-write accesses. The hot quarter
// faults in last, so when DRAM runs out it starts in NVM and the policy
// has to promote it.
type churnApp struct {
	name    string
	region  *vm.Region
	comps   []machine.Component
	stopped bool
}

func startChurnApp(m *machine.Machine, id vm.TenantID, size int64) machine.TenantApp {
	a := &churnApp{name: fmt.Sprintf("tenant%d", id)}
	a.region = m.AS.MapOwned(a.name, size, id)
	m.TouchRange(a.region, 0, a.region.NumPages())
	pages := a.region.AllPages()
	cold := len(pages) - max(1, len(pages)/4)
	a.comps = []machine.Component{
		{Set: vm.NewPageSet(a.name+"-hot", pages[cold:]), Share: 0.9, ReadBytes: 8, WriteBytes: 8, Pattern: mem.Random},
		{Set: vm.NewPageSet(a.name+"-cold", pages[:cold]), Share: 0.1, ReadBytes: 8, WriteBytes: 8, Pattern: mem.Random},
	}
	m.AddWorkloadFor(a, id)
	return a
}

func (a *churnApp) Name() string                    { return a.name }
func (a *churnApp) Threads() int                    { return 1 }
func (a *churnApp) Components() []machine.Component { return a.comps }
func (a *churnApp) OnOps(int64, float64, float64)   {}
func (a *churnApp) Done() bool                      { return a.stopped }
func (a *churnApp) Stop()                           { a.stopped = true }
func (a *churnApp) Regions() []*vm.Region           { return []*vm.Region{a.region} }

// heartbeat is a traffic-free workload that counts the steps it sees.
type heartbeat struct{ steps int }

func (h *heartbeat) Name() string                    { return "heartbeat" }
func (h *heartbeat) Threads() int                    { return 1 }
func (h *heartbeat) Components() []machine.Component { return nil }
func (h *heartbeat) OnOps(int64, float64, float64)   { h.steps++ }
func (h *heartbeat) Done() bool                      { return false }

// tenantMachine builds a HeMem machine on the fleet experiment's
// two-tier table (1 GB DRAM, 16 GB NVM) with the auditor on and tenancy
// enabled. HeMem tracks every region of 4+ pages and keeps 2 pages of
// DRAM free, so tenants of a few hundred MB contend for DRAM.
func tenantMachine(seed uint64) (*machine.Machine, *machine.TenantRuntime) {
	cfg := machine.DefaultConfig()
	cfg.Seed = seed
	cfg.Audit = true
	cfg.Tiers = []machine.TierDesc{
		{ID: vm.TierDRAM, Capacity: 1 * sim.GB},
		{ID: vm.TierNVM, Capacity: 16 * sim.GB, UEVictim: true},
	}
	hcfg := core.DefaultConfig()
	hcfg.LargeAllocThreshold = 4 * cfg.PageSize
	hcfg.FreeDRAMTarget = 2 * cfg.PageSize
	m := machine.New(cfg, core.New(hcfg))
	return m, m.EnableTenants()
}

// churnSpec is a tenant spec with a soft DRAM reservation and a DRAM cap.
func churnSpec(name string, class machine.QoSClass, reserve, capacity int64) machine.TenantSpec {
	spec := machine.TenantSpec{Name: name, Class: class}
	spec.Reserve[vm.TierDRAM] = reserve
	spec.Cap[vm.TierDRAM] = capacity
	return spec
}

// churnOutcome is everything a tenant-churn run produces that the
// stepping schedule must not change.
type churnOutcome struct {
	ops      map[string]uint64
	hists    []sim.Histogram
	classes  [machine.NumQoSClasses]sim.Histogram
	mig      []int64
	classMig [machine.NumQoSClasses]int64
	migStats machine.MigStats
	stats    machine.TenantStats
	csv      string
	steps    int
}

// runChurn plays a tenant-churn script for one second with telemetry on,
// through Machine.Run or (fixed) an explicit Step(Quantum) loop:
//
//   - t=0: gold A, silver B and besteffort C are admitted; gold D does
//     not fit the summed DRAM reservations and queues, and silver E,
//     which would fit, queues behind it (FIFO, no overtaking);
//   - t=150 ms: A departs; once its drain completes, retryPending
//     admits D and then E;
//   - t=400 ms: every active tenant departs, leaving the machine idle;
//   - t=777 ms: silver F arrives, off the telemetry grid, so only the
//     event itself can end the stretched idle step on time.
func runChurn(t *testing.T, fixed bool) churnOutcome {
	t.Helper()
	m, tr := tenantMachine(7)
	hb := &heartbeat{}
	m.AddWorkload(hb)
	tel := m.EnableTelemetry(50 * sim.Millisecond)
	admit := func(spec machine.TenantSpec, size int64) {
		tr.Admit(spec, func(id vm.TenantID) machine.TenantApp { return startChurnApp(m, id, size) })
	}
	admit(churnSpec("A", machine.Gold, 512*sim.MB, 0), 512*sim.MB)
	admit(churnSpec("B", machine.Silver, 256*sim.MB, 0), 512*sim.MB)
	admit(churnSpec("C", machine.BestEffort, 0, 48*sim.MB), 256*sim.MB)
	admit(churnSpec("D", machine.Gold, 384*sim.MB, 0), 512*sim.MB)
	admit(churnSpec("E", machine.Silver, 64*sim.MB, 0), 384*sim.MB)
	m.Events.Schedule(150*sim.Millisecond, func(int64) { tr.Depart(1) })
	m.Events.Schedule(400*sim.Millisecond, func(int64) {
		for id := vm.TenantID(1); int(id) <= tr.NumTenants(); id++ {
			tr.Depart(id)
		}
	})
	m.Events.Schedule(777*sim.Millisecond, func(int64) {
		admit(churnSpec("F", machine.Silver, 64*sim.MB, 0), 128*sim.MB)
	})

	const span = 1 * sim.Second
	if fixed {
		for m.Clock.Now() < span {
			m.Step(m.Cfg.Quantum)
		}
	} else {
		m.Run(span)
	}

	o := churnOutcome{ops: map[string]uint64{}, migStats: m.Migrator.Stats(), stats: tr.Stats(), steps: hb.steps}
	for _, w := range m.Workloads {
		o.ops[w.Name()] = math.Float64bits(m.TotalOps(w.Name()))
	}
	for id := vm.TenantID(1); int(id) <= tr.NumTenants(); id++ {
		o.hists = append(o.hists, *tr.Hist(id))
		o.mig = append(o.mig, tr.Migrations(id))
	}
	for c := range o.classes {
		o.classes[c] = *tr.ClassHist(machine.QoSClass(c))
		o.classMig[c] = tr.ClassMigrations(machine.QoSClass(c))
	}
	var csv strings.Builder
	if err := tel.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	o.csv = csv.String()
	return o
}

// TestRunMatchesStepLoopUnderTenantChurn extends the stepping exactness
// property past the phased workloads: with tenants admitted, queued,
// drained on departure (polled by timeline events) and re-admitted FIFO,
// Run's event-driven steps must reproduce a fixed Step(Quantum) loop bit
// for bit — per-workload ops, per-tenant and per-class histograms,
// migrations and the telemetry CSV.
func TestRunMatchesStepLoopUnderTenantChurn(t *testing.T) {
	fixed, run := runChurn(t, true), runChurn(t, false)

	if want := (machine.TenantStats{Admitted: 6, Queued: 2, Departed: 5}); fixed.stats != want {
		t.Fatalf("churn script produced %+v, want %+v", fixed.stats, want)
	}
	if fixed.migStats.Pages == 0 {
		t.Fatal("no migrations at all: the test lost its DRAM pressure")
	}
	if run.steps >= fixed.steps {
		t.Errorf("Run took %d steps, the Step loop %d: the idle span was never stretched", run.steps, fixed.steps)
	}
	if !reflect.DeepEqual(fixed.ops, run.ops) {
		t.Errorf("ops diverged:\nStep loop %v\nRun       %v", fixed.ops, run.ops)
	}
	if !reflect.DeepEqual(fixed.hists, run.hists) || !reflect.DeepEqual(fixed.classes, run.classes) {
		t.Error("SLO histograms diverged")
	}
	if !reflect.DeepEqual(fixed.mig, run.mig) || fixed.classMig != run.classMig || fixed.migStats != run.migStats {
		t.Errorf("migrations diverged: Step loop %v %v %+v, Run %v %v %+v",
			fixed.mig, fixed.classMig, fixed.migStats, run.mig, run.classMig, run.migStats)
	}
	if fixed.stats != run.stats {
		t.Errorf("tenant stats diverged: Step loop %+v, Run %+v", fixed.stats, run.stats)
	}
	if fixed.csv != run.csv {
		t.Errorf("telemetry CSV diverged (%d vs %d bytes)", len(fixed.csv), len(run.csv))
	}
}
