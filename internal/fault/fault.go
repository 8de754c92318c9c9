// Package fault is a deterministic, seed-driven fault-injection layer for
// the simulated testbed. Real tiered-memory systems do not live on the
// happy path: DMA channels die or degrade, NVM media develops
// uncorrectable errors and thermal-throttles under sustained writes, page
// migrations abort under destination pressure, and PEBS buffers overrun
// when sampling outpaces the reader thread. The injector provokes those
// regimes so the managers' recovery machinery (transactional migration
// with retry/backoff, software-copy fallback, page retirement with
// emergency promotion, adaptive sample periods) can be exercised and
// measured.
//
// All randomness is drawn from an internal/sim RNG derived from the
// machine seed, so faulty runs are exactly as reproducible as fault-free
// ones: the same seed and the same Config produce bit-identical histories.
// A zero Config disables injection entirely; every query then returns its
// neutral value without consulting the RNG, so a disabled injector is a
// strict no-op.
package fault

import (
	"fmt"

	"github.com/tieredmem/hemem/internal/sim"
	"github.com/tieredmem/hemem/internal/vm"
)

// Config selects the faults to inject and their rates. The zero value
// disables all injection. Event-style faults are parameterized by a mean
// time between events (MTBF, simulated nanoseconds; 0 disables that
// fault); episode-style faults additionally carry a duration and a
// severity factor.
type Config struct {
	// MigrationAbortProb is the probability that one page-copy attempt
	// fails its verification step (destination pressure, copy verification
	// mismatch) and rolls back. Aborted migrations retry with capped
	// exponential backoff and are abandoned after MigrationMaxRetries.
	MigrationAbortProb float64
	// MigrationMaxRetries is how many retries a migration gets after its
	// first aborted attempt before it is abandoned and the page stays in
	// place (default 5).
	MigrationMaxRetries int
	// RetryBackoff is the delay before the first retry; it doubles per
	// subsequent retry (default 100 µs).
	RetryBackoff int64
	// RetryBackoffMax caps the exponential backoff (default 10 ms).
	RetryBackoffMax int64

	// DMAChannelMTBF is the mean time between permanent DMA channel
	// failures. Each failure removes one I/OAT channel; when none remain
	// the migrator degrades to the paper's 4-thread software-copy
	// fallback.
	DMAChannelMTBF int64
	// DMADegradedMTBF starts episodes during which the surviving DMA
	// channels run at DMADegradedFactor of their bandwidth for
	// DMADegradedDuration (defaults: 50 ms, 0.5).
	DMADegradedMTBF     int64
	DMADegradedDuration int64
	DMADegradedFactor   float64

	// NVMUncorrectableMTBF is the mean time between uncorrectable media
	// errors striking a random NVM-resident page. The machine retires the
	// failing frame, remaps the page, and asks the manager for an
	// emergency promotion.
	NVMUncorrectableMTBF int64

	// NVMThermalMTBF starts thermal-throttle episodes during which the NVM
	// device runs at NVMThermalFactor of its bandwidth for
	// NVMThermalDuration (defaults: 100 ms, 0.4).
	NVMThermalMTBF     int64
	NVMThermalDuration int64
	NVMThermalFactor   float64

	// PEBSStormMTBF starts sampling storms during which PEBS sample inflow
	// is multiplied by PEBSStormFactor for PEBSStormDuration (defaults:
	// 50 ms, 8). Sustained storms overrun the sample buffer; an adaptive
	// manager responds by raising its sample period.
	PEBSStormMTBF     int64
	PEBSStormDuration int64
	PEBSStormFactor   float64

	// Chaos configures the chaos scheduler: compound episodes, whole-tier
	// offline/online events, and correctable-error storms (see
	// ChaosConfig). The zero value disables it.
	Chaos ChaosConfig
}

// Enabled reports whether any fault is configured.
func (c Config) Enabled() bool {
	return c.MigrationAbortProb > 0 ||
		c.DMAChannelMTBF > 0 ||
		c.DMADegradedMTBF > 0 ||
		c.NVMUncorrectableMTBF > 0 ||
		c.NVMThermalMTBF > 0 ||
		c.PEBSStormMTBF > 0 ||
		c.Chaos.Enabled()
}

// Validate reports the first invalid parameter, or nil. The zero Config
// is valid (injection disabled).
func (c Config) Validate() error {
	if c.MigrationAbortProb < 0 || c.MigrationAbortProb > 1 {
		return fmt.Errorf("fault: MigrationAbortProb %v outside [0,1]", c.MigrationAbortProb)
	}
	if c.MigrationMaxRetries < 0 {
		return fmt.Errorf("fault: negative MigrationMaxRetries %d", c.MigrationMaxRetries)
	}
	if c.RetryBackoff < 0 || c.RetryBackoffMax < 0 {
		return fmt.Errorf("fault: negative retry backoff")
	}
	for _, m := range []struct {
		name string
		v    int64
	}{
		{"DMAChannelMTBF", c.DMAChannelMTBF},
		{"DMADegradedMTBF", c.DMADegradedMTBF},
		{"DMADegradedDuration", c.DMADegradedDuration},
		{"NVMUncorrectableMTBF", c.NVMUncorrectableMTBF},
		{"NVMThermalMTBF", c.NVMThermalMTBF},
		{"NVMThermalDuration", c.NVMThermalDuration},
		{"PEBSStormMTBF", c.PEBSStormMTBF},
		{"PEBSStormDuration", c.PEBSStormDuration},
	} {
		if m.v < 0 {
			return fmt.Errorf("fault: negative %s %d", m.name, m.v)
		}
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"DMADegradedFactor", c.DMADegradedFactor},
		{"NVMThermalFactor", c.NVMThermalFactor},
	} {
		if f.v < 0 || f.v > 1 {
			return fmt.Errorf("fault: %s %v outside [0,1]", f.name, f.v)
		}
	}
	if c.PEBSStormFactor < 0 {
		return fmt.Errorf("fault: negative PEBSStormFactor %v", c.PEBSStormFactor)
	}
	return c.Chaos.validate()
}

// withDefaults fills unset secondary parameters (retry policy, episode
// durations and severities) with their defaults. Rates are never
// defaulted: a zero rate means the fault is off.
func (c Config) withDefaults() Config {
	if c.MigrationMaxRetries <= 0 {
		c.MigrationMaxRetries = 5
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 100 * sim.Microsecond
	}
	if c.RetryBackoffMax <= 0 {
		c.RetryBackoffMax = 10 * sim.Millisecond
	}
	if c.DMADegradedDuration <= 0 {
		c.DMADegradedDuration = 50 * sim.Millisecond
	}
	if c.DMADegradedFactor <= 0 || c.DMADegradedFactor > 1 {
		c.DMADegradedFactor = 0.5
	}
	if c.NVMThermalDuration <= 0 {
		c.NVMThermalDuration = 100 * sim.Millisecond
	}
	if c.NVMThermalFactor <= 0 || c.NVMThermalFactor > 1 {
		c.NVMThermalFactor = 0.4
	}
	if c.PEBSStormDuration <= 0 {
		c.PEBSStormDuration = 50 * sim.Millisecond
	}
	if c.PEBSStormFactor <= 1 {
		c.PEBSStormFactor = 8
	}
	if c.MigrationAbortProb < 0 {
		c.MigrationAbortProb = 0
	}
	if c.MigrationAbortProb > 1 {
		c.MigrationAbortProb = 1
	}
	c.Chaos = c.Chaos.withDefaults()
	return c
}

// Events reports what the injector decided for one quantum.
type Events struct {
	// DMAChannelFails is how many DMA channels die this quantum.
	DMAChannelFails int
	// NVMUncorrectable is how many uncorrectable NVM errors strike this
	// quantum.
	NVMUncorrectable int
	// DMADegradedStart / NVMThermalStart / PEBSStormStart mark episode
	// onsets (an episode already in progress does not restart).
	DMADegradedStart bool
	NVMThermalStart  bool
	PEBSStormStart   bool

	// CompoundStart / CEStormStart mark chaos-scheduler episode onsets.
	CompoundStart bool
	CEStormStart  bool
	// CorrectableErrors is how many correctable media errors strike this
	// quantum (nonzero only inside a CE storm).
	CorrectableErrors int
	// TierOffline is the tier the chaos scheduler takes down this quantum
	// (TierNone if none; at most one per quantum). TierOnline marks the
	// tiers whose offline episodes end this quantum. Fixed-size so Events
	// stays comparable.
	TierOffline vm.Tier
	TierOnline  [vm.MaxTiers]bool
	// Episodes announces episode onsets for the machine's episode log
	// with their scheduled end times; the first NumEpisodes entries are
	// valid.
	Episodes    [maxEpisodeStarts]EpisodeStart
	NumEpisodes int
}

// maxEpisodeStarts bounds episode onsets per quantum: one per episode
// class (compound, DMA-degraded, thermal, storm, CE storm, tier-offline).
const maxEpisodeStarts = 6

// addEpisode records an episode onset in the fixed-size announcement
// list.
func (ev *Events) addEpisode(s EpisodeStart) {
	if ev.NumEpisodes < maxEpisodeStarts {
		ev.Episodes[ev.NumEpisodes] = s
		ev.NumEpisodes++
	}
}

// Injector draws fault decisions from a dedicated deterministic RNG and
// tracks episode state. It is queried by the machine, migrator, and
// managers; all methods are cheap and none draw randomness when the
// injector is disabled.
type Injector struct {
	cfg Config
	rng *sim.Rand
	on  bool

	dmaDegradedUntil int64
	thermalUntil     int64
	stormUntil       int64

	// chaos-scheduler state
	compoundUntil int64
	ceUntil       int64
	offlineUntil  [vm.MaxTiers]int64
	tierScratch   []vm.Tier
	cePrep        sim.PoissonPrep
	ceDT          int64 // the quantum cePrep was built for

	dmaDerate  float64
	nvmDerate  float64
	loadFactor float64
}

// New builds an injector. Out-of-range parameters are clamped to their
// defaults (call Config.Validate beforehand to detect them); a zero
// Config yields a disabled injector.
func New(cfg Config, rng *sim.Rand) *Injector {
	cfg = cfg.withDefaults()
	return &Injector{
		cfg:        cfg,
		rng:        rng,
		on:         cfg.Enabled(),
		dmaDerate:  1,
		nvmDerate:  1,
		loadFactor: 1,
	}
}

// prepCE returns the Poisson constants for CE arrivals over a step of
// dt, rebuilding them only when dt differs from the step they were built
// for: a fixed-quantum run builds them once, while a shortened last step
// of Machine.Run or an explicit Machine.Step gets its own mean.
func (in *Injector) prepCE(dt int64) sim.PoissonPrep {
	if dt != in.ceDT {
		in.ceDT = dt
		in.cePrep = sim.NewPoissonPrep(float64(dt) / float64(in.cfg.Chaos.CEInterval))
	}
	return in.cePrep
}

// Disabled returns an injector that injects nothing.
func Disabled() *Injector { return New(Config{}, sim.NewRand(0)) }

// Enabled reports whether any fault is configured.
func (in *Injector) Enabled() bool { return in.on }

// Config returns the (default-filled) configuration.
func (in *Injector) Config() Config { return in.cfg }

// Advance progresses episodic fault state through one quantum
// [now, now+dt) and returns the events the machine must apply. Event
// counts per quantum follow a Bernoulli(dt/MTBF) approximation, which is
// accurate for quanta much shorter than the MTBF (the simulator's 1 ms
// quantum against MTBFs of hundreds of ms or more).
func (in *Injector) Advance(now, dt int64) Events {
	var ev Events
	if !in.on {
		return ev
	}
	fire := func(mtbf int64) bool {
		return mtbf > 0 && in.rng.Bernoulli(float64(dt)/float64(mtbf))
	}
	if fire(in.cfg.DMAChannelMTBF) {
		ev.DMAChannelFails = 1
	}
	if fire(in.cfg.NVMUncorrectableMTBF) {
		ev.NVMUncorrectable = 1
	}
	if now >= in.dmaDegradedUntil && fire(in.cfg.DMADegradedMTBF) {
		in.dmaDegradedUntil = now + in.cfg.DMADegradedDuration
		ev.DMADegradedStart = true
		ev.addEpisode(EpisodeStart{Kind: EpDMADegraded, Tier: vm.TierNone, Until: in.dmaDegradedUntil})
	}
	if now >= in.thermalUntil && fire(in.cfg.NVMThermalMTBF) {
		in.thermalUntil = now + in.cfg.NVMThermalDuration
		ev.NVMThermalStart = true
		ev.addEpisode(EpisodeStart{Kind: EpNVMThermal, Tier: vm.TierNone, Until: in.thermalUntil})
	}
	if now >= in.stormUntil && fire(in.cfg.PEBSStormMTBF) {
		in.stormUntil = now + in.cfg.PEBSStormDuration
		ev.PEBSStormStart = true
		ev.addEpisode(EpisodeStart{Kind: EpPEBSStorm, Tier: vm.TierNone, Until: in.stormUntil})
	}
	if in.cfg.Chaos.Enabled() {
		in.advanceChaos(now, dt, &ev)
	}
	in.dmaDerate, in.nvmDerate, in.loadFactor = 1, 1, 1
	if now < in.dmaDegradedUntil {
		in.dmaDerate = in.cfg.DMADegradedFactor
	}
	if now < in.thermalUntil {
		in.nvmDerate = in.cfg.NVMThermalFactor
	}
	if now < in.stormUntil {
		in.loadFactor = in.cfg.PEBSStormFactor
	}
	return ev
}

// DMADerate returns the bandwidth multiplier for surviving DMA channels
// (1 outside degraded episodes).
func (in *Injector) DMADerate() float64 { return in.dmaDerate }

// NVMDerate returns the NVM bandwidth multiplier (1 outside thermal
// episodes).
func (in *Injector) NVMDerate() float64 { return in.nvmDerate }

// PEBSLoadFactor returns the sample-inflow multiplier (1 outside storms).
func (in *Injector) PEBSLoadFactor() float64 { return in.loadFactor }

// MigrationAbort draws whether one page-copy attempt fails verification.
// It consumes randomness only when the abort fault is configured.
func (in *Injector) MigrationAbort() bool {
	if !in.on {
		return false
	}
	return in.rng.Bernoulli(in.cfg.MigrationAbortProb)
}

// MaxRetries returns the retry cap for aborted migrations.
func (in *Injector) MaxRetries() int { return in.cfg.MigrationMaxRetries }

// Backoff returns the delay before retry number retry (1-based): the base
// backoff doubled per subsequent retry, capped.
func (in *Injector) Backoff(retry int) int64 {
	b := in.cfg.RetryBackoff
	for i := 1; i < retry; i++ {
		b *= 2
		if b >= in.cfg.RetryBackoffMax {
			return in.cfg.RetryBackoffMax
		}
	}
	if b > in.cfg.RetryBackoffMax {
		b = in.cfg.RetryBackoffMax
	}
	return b
}

// PickIndex draws a uniform index in [0, n) from the injector's stream
// (used to choose the NVM page an uncorrectable error strikes).
func (in *Injector) PickIndex(n int) int { return in.rng.Intn(n) }
