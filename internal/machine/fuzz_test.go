package machine_test

import (
	"testing"

	"github.com/tieredmem/hemem/internal/core"
	"github.com/tieredmem/hemem/internal/fault"
	"github.com/tieredmem/hemem/internal/gups"
	"github.com/tieredmem/hemem/internal/machine"
	"github.com/tieredmem/hemem/internal/sim"
	"github.com/tieredmem/hemem/internal/vm"
)

// fuzzTiers packs a tier table of up to four entries into the fuzzer's
// scalar arguments: one byte of ids per entry, and a flags byte whose
// low nibble marks Swap and high nibble UEVictim entries.
func fuzzTiers(tiers []machine.TierDesc) (n uint8, ids uint32, caps [4]int64, flags uint8) {
	for i, td := range tiers {
		ids |= uint32(uint8(td.ID)) << (8 * i)
		caps[i] = td.Capacity
		if td.Swap {
			flags |= 1 << i
		}
		if td.UEVictim {
			flags |= 1 << (4 + i)
		}
	}
	return uint8(len(tiers)), ids, caps, flags
}

// runFuzzConfig is the property FuzzConfig and FuzzFaultConfig share: a
// config Validate rejects reports an error without panicking; an
// accepted one builds a HeMem machine, runs GUPS over 64 pages for 100
// quanta with the invariant auditor checking every quantum, and ends
// with zero violations. HeMem
// manages every region of 4+ pages and keeps 2 pages free in the fastest
// tier, so a fastest tier smaller than the working set migrates pages.
func runFuzzConfig(t *testing.T, cfg machine.Config) {
	cfg.Audit = true
	if err := cfg.Validate(); err != nil {
		return
	}
	ps := cfg.PageSize
	if cfg.Cores == 0 || ps == 0 { // New's defaulting (Cores 0 means Config{} shorthand)
		ps = machine.DefaultConfig().PageSize
	}
	hcfg := core.DefaultConfig()
	hcfg.LargeAllocThreshold = 4 * ps
	hcfg.FreeDRAMTarget = 2 * ps
	m := machine.New(cfg, core.New(hcfg))
	if m.Cfg.PageSize != ps {
		t.Fatalf("page size %d after defaulting, harness assumed %d", m.Cfg.PageSize, ps)
	}
	gups.New(m, gups.Config{Threads: 4, WorkingSet: 64 * ps, HotSet: 8 * ps, Seed: 5})
	m.Warm()
	m.Run(100 * m.Cfg.Quantum)
	if vs := m.Audit(); len(vs) > 0 {
		t.Fatalf("accepted config %+v: %d audit violations, first: %v", cfg, len(vs), vs[0])
	}
}

// FuzzConfig drives machine.Config through Validate and, when accepted,
// a short audited run. Run it with
//
//	go test -run='^$' -fuzz=FuzzConfig -fuzztime=30s ./internal/machine/
func FuzzConfig(f *testing.F) {
	add := func(c machine.Config) {
		n, ids, caps, flags := fuzzTiers(c.Tiers)
		f.Add(c.Cores, c.DRAMSize, c.NVMSize, c.DiskSize, c.PageSize, c.Quantum, c.AdaptiveQuantum,
			n, ids, caps[0], caps[1], caps[2], caps[3], flags)
	}
	add(machine.DefaultConfig())
	add(machine.Config{})
	adaptive := machine.DefaultConfig()
	adaptive.AdaptiveQuantum = true
	add(adaptive)
	// The fleet experiment's two-tier table.
	fleet := machine.DefaultConfig()
	fleet.Tiers = []machine.TierDesc{
		{ID: vm.TierDRAM, Capacity: 1 * sim.GB},
		{ID: vm.TierNVM, Capacity: 16 * sim.GB, UEVictim: true},
	}
	add(fleet)
	// The tiers experiment's DRAM+CXL+NVM chain over swap.
	tiers := machine.DefaultConfig()
	tiers.DRAMSize = 16 * sim.GB
	tiers.Tiers = []machine.TierDesc{
		{ID: vm.TierDRAM, Capacity: 16 * sim.GB},
		{ID: vm.TierCXL, Capacity: 32 * sim.GB},
		{ID: vm.TierNVM, Capacity: 768 * sim.GB, UEVictim: true},
		{ID: vm.TierDisk, Capacity: 4 * sim.TB, Swap: true},
	}
	add(tiers)
	// Fastest tiers smaller than the 64-page working set, so the run
	// promotes and demotes.
	small := machine.DefaultConfig()
	small.DRAMSize = 16 * small.PageSize
	add(small)
	chain := machine.DefaultConfig()
	chain.Tiers = []machine.TierDesc{
		{ID: vm.TierDRAM, Capacity: 8 * chain.PageSize},
		{ID: vm.TierCXL, Capacity: 16 * chain.PageSize},
		{ID: vm.TierNVM, Capacity: 48 * chain.PageSize},
		{ID: vm.TierDisk, Capacity: 4 * sim.TB},
	}
	add(chain)

	f.Fuzz(func(t *testing.T, cores int, dram, nvm, disk, page, quantum int64, adaptive bool,
		n uint8, ids uint32, c0, c1, c2, c3 int64, flags uint8) {
		cfg := machine.Config{
			Cores: cores, DRAMSize: dram, NVMSize: nvm, DiskSize: disk,
			PageSize: page, Quantum: quantum, AdaptiveQuantum: adaptive, Seed: 1,
		}
		caps := [4]int64{c0, c1, c2, c3}
		for i := 0; i < int(n%5); i++ {
			cfg.Tiers = append(cfg.Tiers, machine.TierDesc{
				ID:       vm.TierID(int8(ids >> (8 * i))),
				Capacity: caps[i],
				Swap:     flags&(1<<i) != 0,
				UEVictim: flags&(1<<(4+i)) != 0,
			})
		}
		runFuzzConfig(t, cfg)
	})
}

// A tier table whose only entry is swap (a lone disk tier defaults to
// swap) leaves nowhere to run from: Validate must reject it instead of
// the manager panicking at Attach. Found by FuzzConfig.
func TestValidateRejectsSwapOnlyTierTable(t *testing.T) {
	for _, tiers := range [][]machine.TierDesc{
		{{ID: vm.TierDisk, Capacity: 53}},
		{{ID: vm.TierNVM, Capacity: sim.GB, Swap: true}},
	} {
		cfg := machine.DefaultConfig()
		cfg.Tiers = tiers
		if err := cfg.Validate(); err == nil {
			t.Errorf("swap-only tier table %+v validated", tiers)
		}
	}
	runFuzzConfig(t, machine.Config{Tiers: []machine.TierDesc{{ID: vm.TierDisk, Capacity: 53}}})
}

// An astronomically long quantum makes a single step fire ~1e11 policy
// ticks, so a 100-quantum run never finishes: Validate must reject
// quanta beyond MaxQuantum. Found by driving FuzzConfig's property with
// hand-picked extreme values.
func TestValidateRejectsOversizedQuantum(t *testing.T) {
	cfg := machine.DefaultConfig()
	cfg.Quantum = 1 << 60
	if err := cfg.Validate(); err == nil {
		t.Fatal("quantum of 1<<60 ns validated")
	}
	cfg.Quantum = machine.MaxQuantum
	runFuzzConfig(t, cfg)
}

// faultFuzzMachine is FuzzFaultConfig's testbed: 16 pages of DRAM over
// NVM (no CXL tier), or, with chain set, FuzzConfig's DRAM+CXL+NVM chain
// over disk. Both keep the fastest tier below GUPS's 64-page working set.
func faultFuzzMachine(chain bool) machine.Config {
	cfg := machine.DefaultConfig()
	if !chain {
		cfg.DRAMSize = 16 * cfg.PageSize
		return cfg
	}
	cfg.Tiers = []machine.TierDesc{
		{ID: vm.TierDRAM, Capacity: 8 * cfg.PageSize},
		{ID: vm.TierCXL, Capacity: 16 * cfg.PageSize},
		{ID: vm.TierNVM, Capacity: 48 * cfg.PageSize, UEVictim: true},
		{ID: vm.TierDisk, Capacity: 4 * sim.TB, Swap: true},
	}
	return cfg
}

// FuzzFaultConfig drives fault.Config — migration aborts plus the chaos
// block (compound episodes, tier offline/online over an OfflineSet of up
// to three tier IDs, which may be invalid or absent from the tier table,
// and correctable-error storms) — through Validate and, when accepted,
// runFuzzConfig's audited 100-quantum HeMem + GUPS run. Run it with
//
//	go test -run='^$' -fuzz=FuzzFaultConfig -fuzztime=20s ./internal/machine/
func FuzzFaultConfig(f *testing.F) {
	add := func(chain bool, fc fault.Config) {
		c := fc.Chaos
		var n uint8
		var ids uint32
		for _, id := range c.OfflineTiers {
			if id != vm.TierNone && n < 3 {
				ids |= uint32(uint8(id)) << (8 * n)
				n++
			}
		}
		f.Add(chain, fc.MigrationAbortProb, c.CompoundMTBF, c.CompoundDuration,
			c.TierOfflineMTBF, c.TierOfflineDuration, n, ids,
			c.CEStormMTBF, c.CEStormDuration, c.CEInterval, c.CERetireThreshold)
	}
	// The chaos experiment's testbed with injection off (it offlines CXL
	// by hand).
	add(true, fault.Config{})
	// The chaos soak's scheduler, its rates scaled from a 40 s run to
	// this 100 ms one.
	add(true, fault.Config{
		MigrationAbortProb: 0.02,
		Chaos: fault.ChaosConfig{
			CompoundMTBF:        20 * sim.Millisecond,
			TierOfflineMTBF:     25 * sim.Millisecond,
			TierOfflineDuration: 10 * sim.Millisecond,
			OfflineTiers:        fault.OfflineSet(vm.TierCXL),
			CEStormMTBF:         10 * sim.Millisecond,
			CEStormDuration:     5 * sim.Millisecond,
			CEInterval:          200 * sim.Microsecond,
			CERetireThreshold:   2,
		},
	})
	// The CE-rate probe of TestCEArrivalsFollowStepLength: a storm that
	// never ends.
	add(false, fault.Config{Chaos: fault.ChaosConfig{
		CEStormMTBF: 1, CEStormDuration: 1000 * sim.Second, CEInterval: 10 * sim.Microsecond,
	}})
	// An offline set naming a tier the table lacks, next to one it has.
	add(false, fault.Config{Chaos: fault.ChaosConfig{
		TierOfflineMTBF: sim.Millisecond, OfflineTiers: fault.OfflineSet(vm.TierCXL, vm.TierDRAM),
	}})

	f.Fuzz(func(t *testing.T, chain bool, abort float64, compMTBF, compDur, offMTBF, offDur int64,
		n uint8, ids uint32, ceMTBF, ceDur, ceInterval int64, ceThreshold int) {
		cfg := faultFuzzMachine(chain)
		cfg.Faults = fault.Config{
			MigrationAbortProb: abort,
			Chaos: fault.ChaosConfig{
				CompoundMTBF: compMTBF, CompoundDuration: compDur,
				TierOfflineMTBF: offMTBF, TierOfflineDuration: offDur,
				CEStormMTBF: ceMTBF, CEStormDuration: ceDur,
				CEInterval: ceInterval, CERetireThreshold: ceThreshold,
			},
		}
		for i := 0; i < int(n%4); i++ {
			cfg.Faults.Chaos.OfflineTiers[i] = vm.TierID(int8(ids >> (8 * i)))
		}
		runFuzzConfig(t, cfg)
	})
}

// A CE interval of a few nanoseconds strikes ~200,000 correctable errors
// per 1 ms quantum, each costing a victim pick, so one 100-quantum run
// took seconds and the fuzzer reported it hung: Validate must reject
// intervals below 1 µs. Found by FuzzFaultConfig.
func TestValidateRejectsNanosecondCEInterval(t *testing.T) {
	cfg := faultFuzzMachine(true)
	cfg.Faults = fault.Config{Chaos: fault.ChaosConfig{
		CompoundMTBF: 122, CompoundDuration: 240,
		TierOfflineMTBF: sim.Millisecond, TierOfflineDuration: 60,
		OfflineTiers: fault.OfflineSet(vm.TierNVM, vm.TierDRAM),
		CEStormMTBF:  80, CEStormDuration: 61, CEInterval: 5, CERetireThreshold: 2,
	}}
	if err := cfg.Validate(); err == nil {
		t.Fatal("CEInterval of 5 ns validated")
	}
	cfg.Faults.Chaos.CEInterval = sim.Microsecond
	runFuzzConfig(t, cfg)
}
