package memmode_test

import (
	"fmt"
	"math"
	"testing"

	"github.com/tieredmem/hemem/internal/core"
	"github.com/tieredmem/hemem/internal/gups"
	"github.com/tieredmem/hemem/internal/machine"
	"github.com/tieredmem/hemem/internal/mem"
	"github.com/tieredmem/hemem/internal/memmode"
	"github.com/tieredmem/hemem/internal/sim"
	"github.com/tieredmem/hemem/internal/vm"
)

// runGUPS runs uniform or hot-set GUPS under a manager and returns score
// and machine.
func runGUPS(mgr machine.Manager, cfg gups.Config, dur int64) (float64, *machine.Machine, *gups.GUPS) {
	m := machine.New(machine.DefaultConfig(), mgr)
	g := gups.New(m, cfg)
	m.Warm()
	m.Run(dur)
	return g.Score(), m, g
}

// For a single uniform zone the occupancy model must match the closed
// form (1−e^{−λ})/λ.
func TestHitRateMatchesClosedForm(t *testing.T) {
	for _, wsGB := range []int64{64, 128, 256} {
		mm := memmode.New()
		_, _, g := runGUPS(mm, gups.Config{Threads: 16, WorkingSet: wsGB * sim.GB}, 500*sim.Millisecond)
		set := g.Components()[0].Set
		lambda := float64(wsGB*sim.GB/64) / float64(192*sim.GB/64)
		want := (1 - math.Exp(-lambda)) / lambda
		got := mm.HitRate(set)
		if math.Abs(got-want) > 0.02 {
			t.Errorf("ws=%dGB: hit rate %.3f, closed form %.3f", wsGB, got, want)
		}
	}
}

// Figure 5, small working sets: MM performs like DRAM (all hits).
func TestMMMatchesDRAMWhenSmall(t *testing.T) {
	mmScore, _, _ := runGUPS(memmode.New(), gups.Config{Threads: 16, WorkingSet: 16 * sim.GB}, 2*sim.Second)
	heScore, _, _ := runGUPS(core.New(core.DefaultConfig()), gups.Config{Threads: 16, WorkingSet: 16 * sim.GB}, 2*sim.Second)
	if mmScore < heScore*0.85 || mmScore > heScore*1.15 {
		t.Errorf("small WS: MM %.3f vs HeMem %.3f, want ≈equal", mmScore, heScore)
	}
}

// Figure 5 at 128 GB (working set still under DRAM capacity): MM suffers
// conflict misses that HeMem does not; the paper reports HeMem at 3.2× MM.
func TestConflictMissGapAt128GB(t *testing.T) {
	mmScore, mMM, _ := runGUPS(memmode.New(), gups.Config{Threads: 16, WorkingSet: 128 * sim.GB}, 3*sim.Second)
	heScore, mHe, _ := runGUPS(core.New(core.DefaultConfig()), gups.Config{Threads: 16, WorkingSet: 128 * sim.GB}, 3*sim.Second)
	ratio := heScore / mmScore
	if ratio < 2 || ratio > 5 {
		t.Errorf("HeMem/MM at 128GB = %.2f, paper says 3.2", ratio)
	}
	// MM writes NVM constantly (dirty evictions); HeMem should not.
	if mMM.NVM.Wear().WriteBytes < 100*float64(mHe.NVM.Wear().WriteBytes+1) {
		t.Errorf("MM NVM writes %.2e not ≫ HeMem %.2e",
			mMM.NVM.Wear().WriteBytes, mHe.NVM.Wear().WriteBytes)
	}
}

// Figure 6: with a fixed 512 GB working set, MM degrades as the hot set
// grows toward DRAM capacity while HeMem holds up (paper: up to 2×).
func TestHotSetGrowthDegradesMM(t *testing.T) {
	small, _, _ := runGUPS(memmode.New(), gups.Config{
		Threads: 16, WorkingSet: 512 * sim.GB, HotSet: 8 * sim.GB, Seed: 3}, 3*sim.Second)
	big, _, _ := runGUPS(memmode.New(), gups.Config{
		Threads: 16, WorkingSet: 512 * sim.GB, HotSet: 128 * sim.GB, Seed: 3}, 3*sim.Second)
	if big > small*0.8 {
		t.Errorf("MM with 128GB hot (%.3f) should trail 8GB hot (%.3f)", big, small)
	}
}

// MM uses zero cores: at 24 application threads it should not lose
// throughput to background work (Figure 7's divergence).
func TestMMZeroCPUOverhead(t *testing.T) {
	mm := memmode.New()
	if mm.ActiveThreads() != 0 {
		t.Fatal("MM must consume no cores")
	}
}

// Write-skew blindness (Table 2): MM cannot keep the write-only partition
// out of NVM writebacks, so HeMem beats it.
func TestWriteSkewMMvsHeMem(t *testing.T) {
	cfg := gups.Config{
		Threads: 16, WorkingSet: 512 * sim.GB, HotSet: 256 * sim.GB,
		WriteOnlyHot: 128 * sim.GB, Seed: 7,
	}
	// Let each system converge, then score a steady-state window.
	steady := func(mgr machine.Manager) float64 {
		m := machine.New(machine.DefaultConfig(), mgr)
		g := gups.New(m, cfg)
		m.Warm()
		m.Run(240 * sim.Second)
		g.ResetScore()
		m.Run(60 * sim.Second)
		return g.Score()
	}
	mmScore := steady(memmode.New())
	heScore := steady(core.New(core.DefaultConfig()))
	if heScore <= mmScore {
		t.Errorf("write skew: HeMem %.4f should beat MM %.4f (paper: MM = 0.86× HeMem)", heScore, mmScore)
	}
}

// ModelRowStats counts every observed zone once per refresh: rows are
// pure functions of their inputs and are rebuilt each pass, never reused.
func TestModelRowStatsCountsZonesPerPass(t *testing.T) {
	mm := memmode.New()
	m := machine.New(machine.DefaultConfig(), mm)
	setA := m.AS.Map("a", 64*sim.MB).AsSet()
	setB := m.AS.Map("b", 256*sim.MB).AsSet()
	comps := []machine.Component{
		{Set: setA, Share: 1, ReadBytes: 64, WriteBytes: 8},
		{Set: setB, Share: 1, ReadBytes: 128},
	}
	rates := []float64{0.25, 0.125}
	for i, want := range []int64{2, 4, 6} {
		mm.ObserveTraffic(int64(i)*50*sim.Millisecond, comps, rates)
		if b, r := mm.ModelRowStats(); b != want || r != 0 {
			t.Fatalf("refresh %d: built=%d reused=%d, want %d/0", i, b, r, want)
		}
	}
	// A pass between refreshes observes traffic but builds no rows.
	mm.ObserveTraffic(110*sim.Millisecond, comps, rates)
	if b, _ := mm.ModelRowStats(); b != 6 {
		t.Fatalf("non-refresh pass built rows: %d, want 6", b)
	}
}

// A zone whose traffic stops must stop competing for cache sets: once B
// is absent from the traffic passes, A's hit rate returns to its solo
// value instead of staying depressed by B's last-seen rates.
func TestStoppedZoneStopsCompeting(t *testing.T) {
	mm := memmode.New()
	m := machine.New(machine.DefaultConfig(), mm)
	setA := m.AS.Map("a", 64*sim.GB).AsSet()
	setB := m.AS.Map("b", 256*sim.GB).AsSet()
	compA := machine.Component{Set: setA, Share: 1, ReadBytes: 64}
	compB := machine.Component{Set: setB, Share: 1, ReadBytes: 64}

	// Equal per-line rates: B has 4x A's lines, so 4x A's line rate.
	mm.ObserveTraffic(0, []machine.Component{compA, compB}, []float64{0.25, 1})
	shared := mm.HitRate(setA)

	mm.ObserveTraffic(50*sim.Millisecond, []machine.Component{compA}, []float64{0.25})
	lambda := float64(64*sim.GB) / float64(192*sim.GB)
	solo := (1 - math.Exp(-lambda)) / lambda
	got := mm.HitRate(setA)
	if math.Abs(got-solo) > 0.02 {
		t.Fatalf("A's hit rate after B stopped = %.3f (with B: %.3f), want solo %.3f", got, shared, solo)
	}
	if shared > solo-0.1 {
		t.Fatalf("A's hit rate with B competing = %.3f, want well below solo %.3f", shared, solo)
	}
}

// Every zone's dirty lines feed the writeback estimate, however many
// zones there are: with 24 zones where only zones 16–23 are written, a
// clean zone's misses still evict dirty victims.
func TestWritebackCountsEveryZone(t *testing.T) {
	mm := memmode.New()
	m := machine.New(machine.DefaultConfig(), mm)
	comps := make([]machine.Component, 24)
	rates := make([]float64, len(comps))
	for i := range comps {
		set := m.AS.Map(fmt.Sprintf("z%d", i), 16*sim.GB).AsSet()
		comps[i] = machine.Component{Set: set, Share: 1, ReadBytes: 64}
		if i >= 16 {
			comps[i] = machine.Component{Set: set, Share: 1, WriteBytes: 64}
		}
		rates[i] = 0.1
	}
	mm.ObserveTraffic(0, comps, rates)
	nvm, _ := m.DevOf(vm.TierNVM)
	cc := mm.ComponentCost(comps[0])
	if wb := cc.Bytes[nvm][mem.Write]; wb <= 0 {
		t.Fatalf("clean zone 0 NVM writeback bytes = %v, want > 0 (zones 16-23 are dirty)", wb)
	}
}

// Identically seeded multi-zone runs must reproduce bit-identical scores
// and hit rates. The occupancy model sums over zones in first-observed
// order; iterating the zones map instead would randomize the float
// summation order, making MM results differ run to run.
func TestMultiZoneDeterminism(t *testing.T) {
	run := func() (float64, float64) {
		mm := memmode.New()
		score, _, g := runGUPS(mm, gups.Config{
			Threads: 16, WorkingSet: 64 * sim.GB, HotSet: 8 * sim.GB, Seed: 17,
		}, 2*sim.Second)
		return score, mm.HitRate(g.HotPages())
	}
	s0, h0 := run()
	for i := 0; i < 3; i++ {
		if s1, h1 := run(); s1 != s0 || h1 != h0 {
			t.Fatalf("rerun %d: score %v vs %v, hot hit rate %v vs %v — multi-zone MM model is order-dependent",
				i, s1, s0, h1, h0)
		}
	}
}

// The model has no random state: two refreshes over identical traffic
// give bit-identical hit rates and component costs.
func TestRefreshOverSameTrafficIsBitIdentical(t *testing.T) {
	mm := memmode.New()
	m := machine.New(machine.DefaultConfig(), mm)
	setA := m.AS.Map("a", 64*sim.GB).AsSet()
	setB := m.AS.Map("b", 160*sim.GB).AsSet()
	comps := []machine.Component{
		{Set: setA, Share: 1, ReadBytes: 64},
		{Set: setB, Share: 1, ReadBytes: 64, WriteBytes: 64},
	}
	rates := []float64{0.5, 0.25}
	mm.ObserveTraffic(0, comps, rates)
	hit, cost := mm.HitRate(setA), mm.ComponentCost(comps[0])
	mm.ObserveTraffic(50*sim.Millisecond, comps, rates)
	if h := mm.HitRate(setA); h != hit {
		t.Fatalf("hit rate moved between refreshes over identical traffic: %v then %v", hit, h)
	}
	if c := mm.ComponentCost(comps[0]); c != cost {
		t.Fatalf("component cost moved between refreshes over identical traffic:\n%+v\n%+v", cost, c)
	}
}

// A zone's size follows its page set: when a 64 GB set grows by a second
// 192 GB region, the next refresh prices it as a 256 GB zone.
func TestZoneSizeFollowsSet(t *testing.T) {
	mm := memmode.New()
	m := machine.New(machine.DefaultConfig(), mm)
	set := m.AS.Map("a", 64*sim.GB).AsSet()
	comps := []machine.Component{{Set: set, Share: 1, ReadBytes: 64}}
	mm.ObserveTraffic(0, comps, []float64{0.25})
	for _, p := range m.AS.Map("b", 192*sim.GB).AllPages() {
		set.Add(p)
	}
	mm.ObserveTraffic(50*sim.Millisecond, comps, []float64{0.25})
	lambda := 256.0 / 192
	if want, got := (1-math.Exp(-lambda))/lambda, mm.HitRate(set); math.Abs(got-want) > 1e-3 {
		t.Fatalf("hit rate after the set grew to 256 GB = %.4f, want closed form %.4f", got, want)
	}
}

// A zone whose set was unmapped is dropped: refreshes after the unmap
// build one row per pass instead of two.
func TestUnmappedZoneIsDropped(t *testing.T) {
	mm := memmode.New()
	m := machine.New(machine.DefaultConfig(), mm)
	setA := m.AS.Map("a", 64*sim.MB).AsSet()
	regB := m.AS.Map("b", 64*sim.MB)
	setB := regB.AsSet()
	compA := machine.Component{Set: setA, Share: 1, ReadBytes: 64}
	compB := machine.Component{Set: setB, Share: 1, ReadBytes: 64}
	mm.ObserveTraffic(0, []machine.Component{compA, compB}, []float64{0.25, 0.25})
	if b, _ := mm.ModelRowStats(); b != 2 {
		t.Fatalf("rows built with A and B observed = %d, want 2", b)
	}
	m.Unmap(regB)
	for i := int64(1); i <= 2; i++ {
		mm.ObserveTraffic(i*50*sim.Millisecond, []machine.Component{compA}, []float64{0.25})
		if b, _ := mm.ModelRowStats(); b != 2+i {
			t.Fatalf("refresh %d after unmapping B: %d rows built in total, want %d (one per pass)", i, b, 2+i)
		}
	}
}
