// Chaos scheduler: a seeded timeline that composes the independent
// injectors into compound episodes and adds the two fault classes PR 1's
// injectors could not express — whole-tier offline/online events (a CXL
// expander link going down, a DIMM hot-removed) and correctable-error
// storms that escalate into predictive page retirement. Like everything
// else in this package, the scheduler draws from the injector's RNG
// stream only when configured, so a zero ChaosConfig is a strict no-op
// and the same seed plus the same Config replays bit-identical episode
// timelines.
package fault

import (
	"fmt"
	"io"

	"github.com/tieredmem/hemem/internal/sim"
	"github.com/tieredmem/hemem/internal/vm"
)

// ChaosConfig extends Config with compound and tier-level fault classes.
// The zero value disables the chaos scheduler entirely.
type ChaosConfig struct {
	// CompoundMTBF is the mean time between compound episodes: a DMA
	// degradation, an NVM thermal throttle, and a PEBS storm all starting
	// together and running for CompoundDuration (default 50 ms). Episodes
	// already in progress are extended, not restarted.
	CompoundMTBF     int64
	CompoundDuration int64

	// TierOfflineMTBF is the mean time between whole-tier offline events.
	// Each event picks one currently-online tier uniformly from
	// OfflineTiers, takes it down for TierOfflineDuration (default
	// 500 ms), and brings it back online when the episode ends. The
	// machine refuses events that would offline its last migratable tier.
	// OfflineTiers is a fixed array (zero entries ignored) so Config
	// stays comparable; build it with OfflineSet.
	TierOfflineMTBF     int64
	TierOfflineDuration int64
	OfflineTiers        [vm.MaxTiers]vm.TierID

	// CEStormMTBF starts correctable-error storms lasting CEStormDuration
	// (default 100 ms) during which correctable media errors strike
	// random resident pages with mean inter-arrival CEInterval (default
	// 1 ms, at least 1 µs). A page accumulating CERetireThreshold
	// correctable errors (default 4) is predictively retired: its frame
	// is discarded and the page remaps, exactly like an uncorrectable
	// strike but before data loss.
	CEStormMTBF       int64
	CEStormDuration   int64
	CEInterval        int64
	CERetireThreshold int
}

// minCEInterval bounds ChaosConfig.CEInterval from below. Each strike
// costs a victim pick, so a nanosecond interval (a million strikes per
// 1 ms quantum) stalls a run for no modelling gain: a million
// correctable errors a second is far past any real ECC storm.
const minCEInterval = sim.Microsecond

// Enabled reports whether any chaos fault class is configured.
func (c ChaosConfig) Enabled() bool {
	return c.CompoundMTBF > 0 || c.TierOfflineMTBF > 0 || c.CEStormMTBF > 0
}

// validate reports the first invalid chaos parameter, or nil.
func (c ChaosConfig) validate() error {
	for _, m := range []struct {
		name string
		v    int64
	}{
		{"CompoundMTBF", c.CompoundMTBF},
		{"CompoundDuration", c.CompoundDuration},
		{"TierOfflineMTBF", c.TierOfflineMTBF},
		{"TierOfflineDuration", c.TierOfflineDuration},
		{"CEStormMTBF", c.CEStormMTBF},
		{"CEStormDuration", c.CEStormDuration},
		{"CEInterval", c.CEInterval},
	} {
		if m.v < 0 {
			return fmt.Errorf("fault: negative %s %d", m.name, m.v)
		}
	}
	if c.CEInterval > 0 && c.CEInterval < minCEInterval {
		return fmt.Errorf("fault: CEInterval %d ns below the %d ns minimum", c.CEInterval, int64(minCEInterval))
	}
	if c.CERetireThreshold < 0 {
		return fmt.Errorf("fault: negative CERetireThreshold %d", c.CERetireThreshold)
	}
	n := 0
	for _, t := range c.OfflineTiers {
		if t == vm.TierNone {
			continue
		}
		if t < vm.TierNone || int(t) >= vm.MaxTiers {
			return fmt.Errorf("fault: invalid offline tier %d", t)
		}
		n++
	}
	if c.TierOfflineMTBF > 0 && n == 0 {
		return fmt.Errorf("fault: TierOfflineMTBF set but OfflineTiers empty")
	}
	return nil
}

// OfflineSet packs tier IDs into a ChaosConfig.OfflineTiers array.
func OfflineSet(tiers ...vm.TierID) [vm.MaxTiers]vm.TierID {
	var out [vm.MaxTiers]vm.TierID
	copy(out[:], tiers)
	return out
}

// withDefaults fills unset durations and thresholds.
func (c ChaosConfig) withDefaults() ChaosConfig {
	if c.CompoundDuration <= 0 {
		c.CompoundDuration = 50 * sim.Millisecond
	}
	if c.TierOfflineDuration <= 0 {
		c.TierOfflineDuration = 500 * sim.Millisecond
	}
	if c.CEStormDuration <= 0 {
		c.CEStormDuration = 100 * sim.Millisecond
	}
	if c.CEInterval <= 0 {
		c.CEInterval = sim.Millisecond
	}
	if c.CERetireThreshold <= 0 {
		c.CERetireThreshold = 4
	}
	return c
}

// EpisodeKind identifies a fault episode class in the episode log.
type EpisodeKind int8

// The episode classes, in the order the scheduler evaluates them.
const (
	EpNone EpisodeKind = iota
	EpDMADegraded
	EpNVMThermal
	EpPEBSStorm
	EpCompound
	EpCEStorm
	EpTierOffline
)

// String returns the episode kind's log name.
func (k EpisodeKind) String() string {
	switch k {
	case EpDMADegraded:
		return "dma-degraded"
	case EpNVMThermal:
		return "nvm-thermal"
	case EpPEBSStorm:
		return "pebs-storm"
	case EpCompound:
		return "compound"
	case EpCEStorm:
		return "ce-storm"
	case EpTierOffline:
		return "tier-offline"
	}
	return "none"
}

// EpisodeStart announces an episode onset inside Events. Until is the
// scheduled end time.
type EpisodeStart struct {
	Kind  EpisodeKind
	Tier  vm.Tier // tier-offline episodes only; TierNone otherwise
	Until int64
}

// Episode is one entry of the machine's replayable episode log: an
// episode onset with its scheduled end and, for tier-offline episodes,
// the measured evacuation time (MTTR). EvacNs is -1 while evacuation is
// still in progress (or was cut short by the tier coming back online).
type Episode struct {
	Kind   EpisodeKind
	Tier   vm.Tier
	Start  int64
	End    int64
	EvacNs int64
}

// String formats one episode-log line.
func (e Episode) String() string {
	s := fmt.Sprintf("[%10.6fs] %-12s", float64(e.Start)/float64(sim.Second), e.Kind)
	if e.Kind == EpTierOffline {
		s += " " + e.Tier.String()
	}
	if e.End > 0 {
		s += fmt.Sprintf(" until %.6fs", float64(e.End)/float64(sim.Second))
	}
	if e.Kind == EpTierOffline && e.EvacNs >= 0 {
		s += fmt.Sprintf(" evac %.3fms", float64(e.EvacNs)/float64(sim.Millisecond))
	}
	return s
}

// WriteEpisodes writes the episode log, one line per episode.
func WriteEpisodes(w io.Writer, eps []Episode) error {
	for _, e := range eps {
		if _, err := fmt.Fprintln(w, e.String()); err != nil {
			return err
		}
	}
	return nil
}

// advanceChaos draws the chaos scheduler's decisions for one quantum.
// Called from Advance after the independent injectors so that a disabled
// ChaosConfig leaves the RNG stream untouched. Draw order is fixed
// (compound, tier offline/online, CE storm, CE strikes) so timelines
// replay bit-identically.
func (in *Injector) advanceChaos(now, dt int64, ev *Events) {
	c := in.cfg.Chaos
	fire := func(mtbf int64) bool {
		return mtbf > 0 && in.rng.Bernoulli(float64(dt)/float64(mtbf))
	}

	// Compound episode: all three derate episodes start (or extend)
	// together. Constituents not already running are announced so the
	// machine's per-class counters see them.
	if now >= in.compoundUntil && fire(c.CompoundMTBF) {
		in.compoundUntil = now + c.CompoundDuration
		until := in.compoundUntil
		ev.CompoundStart = true
		ev.addEpisode(EpisodeStart{Kind: EpCompound, Tier: vm.TierNone, Until: until})
		if now >= in.dmaDegradedUntil {
			ev.DMADegradedStart = true
		}
		if now >= in.thermalUntil {
			ev.NVMThermalStart = true
		}
		if now >= in.stormUntil {
			ev.PEBSStormStart = true
		}
		if in.dmaDegradedUntil < until {
			in.dmaDegradedUntil = until
		}
		if in.thermalUntil < until {
			in.thermalUntil = until
		}
		if in.stormUntil < until {
			in.stormUntil = until
		}
	}

	// Tier offline/online. Expired schedules come back online first, so
	// a tier can be re-offlined the same quantum it recovers only by a
	// fresh draw.
	if c.TierOfflineMTBF > 0 {
		for _, t := range c.OfflineTiers {
			if t == vm.TierNone {
				continue
			}
			if u := in.offlineUntil[t]; u != 0 && now >= u {
				in.offlineUntil[t] = 0
				ev.TierOnline[t] = true
			}
		}
		if fire(c.TierOfflineMTBF) {
			in.tierScratch = in.tierScratch[:0]
			for _, t := range c.OfflineTiers {
				if t != vm.TierNone && in.offlineUntil[t] == 0 {
					in.tierScratch = append(in.tierScratch, t)
				}
			}
			if n := len(in.tierScratch); n > 0 {
				t := in.tierScratch[in.rng.Intn(n)]
				in.offlineUntil[t] = now + c.TierOfflineDuration
				ev.TierOffline = t
				ev.addEpisode(EpisodeStart{Kind: EpTierOffline, Tier: t, Until: in.offlineUntil[t]})
			}
		}
	}

	// Correctable-error storm onset, then the strikes themselves: a
	// Poisson arrival count with mean dt/CEInterval while in a storm.
	if now >= in.ceUntil && fire(c.CEStormMTBF) {
		in.ceUntil = now + c.CEStormDuration
		ev.CEStormStart = true
		ev.addEpisode(EpisodeStart{Kind: EpCEStorm, Tier: vm.TierNone, Until: in.ceUntil})
	}
	if now < in.ceUntil {
		ev.CorrectableErrors = in.rng.PoissonCached(in.prepCE(dt))
	}
}

// CERetireThreshold returns how many correctable errors a page absorbs
// before its frame is predictively retired.
func (in *Injector) CERetireThreshold() int { return in.cfg.Chaos.CERetireThreshold }
