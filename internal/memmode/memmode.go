// Package memmode implements Intel Optane DC "memory mode" (§2.4): all
// data physically lives in NVM, and DRAM acts as a hardware-managed
// direct-mapped cache with 64 B lines. Software sees one flat memory and
// has no control; there is no hot/cold tracking, no policy, and no CPU
// overhead — but conflict misses grow as occupancy rises, every miss
// fetches a 256 B NVM media block, and dirty evictions write NVM
// constantly (the wear behaviour of Figure 16).
//
// The cache is modelled analytically. Workload traffic decomposes into
// disjoint zones (one per component page set). Cache-set composition is
// Poisson per zone (n_z/S lines expected per set), and within a set the
// cached line is the most recently accessed, so a specific line of zone z
// is resident with probability E[a_z / (a_z + Σ_j k_j·a_j)]. That
// expectation and the writeback mass have exact integral forms (see
// occupancy), evaluated by one deterministic quadrature with no RNG. For
// a single uniform zone the hit rate is (1−e^{−λ})/λ.
//
// The model is refreshed every modelRefresh of simulated time from the
// zone sizes and rates of the latest traffic pass; a zone absent from
// that pass (its workload finished or stopped) stops competing for cache
// sets, and is dropped once its set is empty. Zones are summed in
// first-observed order, so results are bit-reproducible.
package memmode

import (
	"math"

	"github.com/tieredmem/hemem/internal/machine"
	"github.com/tieredmem/hemem/internal/mem"
	"github.com/tieredmem/hemem/internal/sim"
	"github.com/tieredmem/hemem/internal/vm"
)

const (
	lineSize = 64
	// modelRefresh is how often the occupancy model is recomputed
	// (simulated ns).
	modelRefresh = 50 * sim.Millisecond
	// The occupancy integrals run over t ∈ [quadLo/a_max, quadHi/a_min]
	// (a = per-line rates) on a trapezoid grid of step quadStep in ln t.
	quadStep = 0.25
	quadLo   = 1e-7
	quadHi   = 50
)

// zone is the cache model's view of one component page set.
type zone struct {
	set   *vm.PageSet
	lines float64 // cacheable lines in the zone
	// readLineRate/writeLineRate are line accesses per ns (smoothed).
	readLineRate  float64
	writeLineRate float64
	pattern       mem.Pattern

	hit   float64 // P(access to a line of this zone hits)
	wb    float64 // expected dirty-victim writebacks per miss
	valid bool

	// seenGen marks the last ObserveTraffic pass that updated this zone's
	// rates, so repeated components over the same set within one pass
	// accumulate while a new pass overwrites — without a per-quantum
	// "seen" map allocation.
	seenGen uint64
}

// zoneModel is one zone's row in a refreshModel pass: its Poisson mean
// λ = lines/cacheSets, per-line rate and dirty fraction, the quadrature
// sums occupancy accumulates, and e = e^{−perLine·t} at the current node.
type zoneModel struct {
	z                      *zone
	lambda, perLine, dirty float64
	hit, miss, wb, e       float64
}

// perLineRate is the access rate of one line of the zone.
func (z *zone) perLineRate() float64 {
	if z.lines == 0 {
		return 0
	}
	return (z.readLineRate + z.writeLineRate) / z.lines
}

// dirtyFrac is the probability a cached line of this zone is dirty.
func (z *zone) dirtyFrac() float64 {
	t := z.readLineRate + z.writeLineRate
	if t == 0 {
		return 0
	}
	// A line that receives any writes is dirty essentially always once
	// cached; approximate by the write share of traffic, saturating
	// quickly.
	return math.Min(z.writeLineRate/t*2, 1)
}

// MemoryMode is the hardware tiering manager.
type MemoryMode struct {
	m *machine.Machine

	// devDRAM and devNVM are the cache and backing device indices,
	// resolved from the machine's tier table at Attach (memory mode is
	// inherently two-tier: DRAM cache over NVM).
	devDRAM, devNVM machine.Dev

	cacheSets float64
	zones     map[*vm.PageSet]*zone
	// order lists zones in first-observed order. The model must never
	// iterate the zones map: map order would randomize refreshModel's
	// float summation order, making MM results differ run to run.
	order []*zone
	// scratch is the reusable zone table refreshModel builds each pass.
	scratch []zoneModel
	// gen counts ObserveTraffic passes; see zone.seenGen.
	gen       uint64
	lastModel int64
	// rowsBuilt counts zones processed across refreshModel passes, for
	// tests and reports.
	rowsBuilt int64
}

// New returns a memory-mode manager.
func New() *MemoryMode {
	return &MemoryMode{zones: make(map[*vm.PageSet]*zone)}
}

// Name implements machine.Manager.
func (mm *MemoryMode) Name() string { return "MM" }

// Attach implements machine.Manager.
func (mm *MemoryMode) Attach(m *machine.Machine) {
	mm.m = m
	mm.cacheSets = float64(m.Cfg.DRAMSize / lineSize)
	mm.lastModel = -1
	var ok bool
	if mm.devDRAM, ok = m.DevOf(vm.TierDRAM); !ok {
		panic("memmode: machine has no DRAM tier")
	}
	if mm.devNVM, ok = m.DevOf(vm.TierNVM); !ok {
		panic("memmode: machine has no NVM tier")
	}
}

// PageIn implements machine.Manager: in memory mode everything is backed
// by NVM; the DRAM cache is invisible to placement.
func (mm *MemoryMode) PageIn(p *vm.Page) { p.SetTier(vm.TierNVM) }

// OnQuantum implements machine.Manager.
func (mm *MemoryMode) OnQuantum(now, dt int64) {}

// ActiveThreads implements machine.Manager: pure hardware, zero cores.
func (mm *MemoryMode) ActiveThreads() float64 { return 0 }

// ObserveTraffic implements machine.TrafficObserver: update zone rates and
// periodically refresh the occupancy model.
func (mm *MemoryMode) ObserveTraffic(now int64, comps []machine.Component, occRates []float64) {
	mm.gen++
	for i := range comps {
		c := &comps[i]
		z, ok := mm.zones[c.Set]
		if !ok {
			z = &zone{set: c.Set}
			mm.zones[c.Set] = z
			mm.order = append(mm.order, z)
		}
		z.lines = float64(c.Set.Bytes() / lineSize)
		z.pattern = c.Pattern
		rl := occRates[i] * linesOf(c.ReadBytes)
		wl := occRates[i] * linesOf(c.WriteBytes)
		if z.seenGen == mm.gen {
			z.readLineRate += rl
			z.writeLineRate += wl
		} else {
			z.readLineRate = rl
			z.writeLineRate = wl
			z.seenGen = mm.gen
		}
	}
	if mm.lastModel < 0 || now-mm.lastModel >= modelRefresh {
		mm.refreshModel()
		mm.lastModel = now
	}
}

func linesOf(bytes int64) float64 {
	if bytes <= 0 {
		return 0
	}
	n := (bytes + lineSize - 1) / lineSize
	return float64(n)
}

// refreshModel recomputes per-zone hit rates and writeback expectations
// from the latest traffic pass, in first-observed zone order.
func (mm *MemoryMode) refreshModel() {
	zs, live := mm.scratch[:0], mm.order[:0]
	for _, z := range mm.order {
		if z.seenGen != mm.gen {
			if z.set.Len() == 0 {
				// Unmapped: the zone can never carry traffic again.
				delete(mm.zones, z.set)
				continue
			}
			// No component touched the zone this pass: its traffic has
			// stopped, so it must not keep competing for cache sets.
			z.readLineRate, z.writeLineRate = 0, 0
		}
		live = append(live, z)
		if pl := z.perLineRate(); pl > 0 {
			zs = append(zs, zoneModel{z: z, lambda: z.lines / mm.cacheSets, perLine: pl, dirty: z.dirtyFrac()})
		}
	}
	clear(mm.order[len(live):])
	mm.order, mm.scratch = live, zs
	mm.rowsBuilt += int64(len(live))
	occupancy(zs)
	for i := range zs {
		zs[i].z.hit, zs[i].z.wb, zs[i].z.valid = zs[i].hit, zs[i].wb, true
	}
}

// occupancy solves the cache model for every zone of zs. A line of zone i
// (rate a) hits iff it was its set's last access. With k_j ~ Poisson(λ_j)
// lines per set from zone j and X = Σ_j k_j a_j, writing 1/(a+X) as
// ∫₀^∞ e^{−(a+X)t} dt and size-biasing (E[k g(k)] = λ E[g(k+1)]) gives
//
//	hit = E[a/(a+X)] = a ∫ e^{−at} M(t) dt,  miss = ∫ e^{−at} M(t) C(t) dt
//	wb  = E[Σ_j k_j a_j d_j/(a+X)] / miss    = ∫ e^{−at} M(t) D(t) dt / miss
//
// with M(t) = Π_j exp(λ_j(e^{−a_j t}−1)), C(t) = Σ_j λ_j a_j e^{−a_j t},
// and D(t) that sum weighted by dirty fractions d_j (a miss evicts zone
// j's line in proportion to its rate mass). Integrating miss rather than
// taking 1−hit keeps a small miss precise and wb ≤ max d_j. All zones
// share one trapezoid grid in u = ln t; below it the integrands fall off
// like e^u, covered by the first node's extra unit weight.
func occupancy(zs []zoneModel) {
	if len(zs) == 0 {
		return
	}
	aMin, aMax := math.Inf(1), 0.0
	for i := range zs {
		aMin, aMax = math.Min(aMin, zs[i].perLine), math.Max(aMax, zs[i].perLine)
		zs[i].hit, zs[i].miss, zs[i].wb = 0, 0, 0
	}
	uLo := math.Log(quadLo / aMax)
	n := int(math.Ceil((math.Log(quadHi/aMin) - uLo) / quadStep))
	for k := 0; k <= n; k++ {
		t := math.Exp(uLo + float64(k)*quadStep)
		w := quadStep * t // dt = t du
		if k == 0 {
			w = (quadStep/2 + 1) * t
		} else if k == n {
			w /= 2
		}
		var logM, c, d float64
		for j := range zs {
			z := &zs[j]
			z.e = math.Exp(-z.perLine * t)
			logM += z.lambda * (z.e - 1)
			r := z.lambda * z.perLine * z.e
			c += r
			d += r * z.dirty
		}
		wm := w * math.Exp(logM)
		for j := range zs {
			f := wm * zs[j].e
			zs[j].hit += f * zs[j].perLine
			zs[j].miss += f * c
			zs[j].wb += f * d
		}
	}
	for i := range zs {
		z := &zs[i]
		z.hit = math.Min(z.hit, 1)
		if z.miss > 0 { // else wb ≤ miss is 0 too
			z.wb /= z.miss
		}
	}
}

// ModelRowStats reports how many zone rows refreshModel has built across
// all passes so far, for tests and reports. Every pass rebuilds every
// row, so reused is always 0.
func (mm *MemoryMode) ModelRowStats() (built, reused int64) {
	return mm.rowsBuilt, 0
}

// HitRate returns the modelled hit rate for the zone backing set, for
// tests and reports.
func (mm *MemoryMode) HitRate(set *vm.PageSet) float64 {
	if z, ok := mm.zones[set]; ok && z.valid {
		return z.hit
	}
	return 1
}

// ComponentBranches implements machine.Brancher: an access either hits the
// DRAM cache or misses to NVM (plus the fill), which is what spreads MM's
// latency tail in Tables 3 and 4.
func (mm *MemoryMode) ComponentBranches(c machine.Component) []machine.CostBranch {
	hit := 1.0
	if z, ok := mm.zones[c.Set]; ok && z.valid {
		hit = z.hit
	}
	dramTime := mm.m.CostIn(c, vm.TierDRAM)
	nvmTime := mm.m.CostIn(c, vm.TierNVM)
	return []machine.CostBranch{
		{Prob: hit, Time: dramTime},
		{Prob: 1 - hit, Time: nvmTime},
	}
}

// ComponentCost implements machine.CostModeler: price accesses through the
// DRAM cache.
func (mm *MemoryMode) ComponentCost(c machine.Component) machine.CompCost {
	var cc machine.CompCost
	if c.Set == nil || c.Set.Len() == 0 {
		cc.Time = 1
		return cc
	}
	dram, nvm := mm.m.DRAM, mm.m.NVM
	z, ok := mm.zones[c.Set]
	hit, wb := 1.0, 0.0
	if ok && z.valid {
		hit, wb = z.hit, z.wb
	}
	miss := 1 - hit

	cc.Time += mm.m.TLBWalkCost(c.Set, c.Pattern)

	// Reads: hits from DRAM; misses fetch a 256 B NVM media block, fill
	// DRAM, and evict (writeback if dirty).
	if c.ReadBytes > 0 {
		lines := linesOf(c.ReadBytes)
		deps := float64(c.Deps)
		if deps <= 0 {
			deps = 1
		}
		perDep := c.ReadBytes / int64(deps)
		cc.Time += deps * hit * dram.AccessTime(mem.Read, c.Pattern, perDep)
		cc.Time += deps * miss * nvm.AccessTime(mem.Read, c.Pattern, perDep)

		dramBytes := hit * float64(dram.MediaBytes(c.ReadBytes))
		nvmBytes := miss * lines * float64(nvm.MediaBytes(lineSize))
		fill := miss * lines * lineSize
		wbBytes := miss * wb * lines * float64(nvm.MediaBytes(lineSize))

		cc.Bytes[mm.devDRAM][mem.Read] += dramBytes
		cc.Bytes[mm.devNVM][mem.Read] += nvmBytes
		cc.Bytes[mm.devDRAM][mem.Write] += fill
		cc.Bytes[mm.devNVM][mem.Write] += wbBytes

		cc.Util[mm.devDRAM][mem.Read] += dramBytes / dram.PeakFor(mem.Read, c.Pattern, c.ReadBytes)
		cc.Util[mm.devNVM][mem.Read] += nvmBytes / nvm.PeakFor(mem.Read, c.Pattern, lineSize)
		cc.Util[mm.devDRAM][mem.Write] += fill / dram.PeakFor(mem.Write, c.Pattern, lineSize)
		cc.Util[mm.devNVM][mem.Write] += wbBytes / nvm.PeakFor(mem.Write, mem.Random, lineSize)
	}

	// Writes: stores land in the DRAM cache. If the component also reads
	// the same lines (read-modify-write), the store always hits the
	// just-fetched line; otherwise it write-allocates on a miss.
	if c.WriteBytes > 0 {
		lines := linesOf(c.WriteBytes)
		storeMiss := miss
		if c.ReadBytes > 0 {
			storeMiss = 0
		}
		dramBytes := float64(dram.MediaBytes(c.WriteBytes))
		cc.Time += dramBytes / dram.Spec.Stream[mem.Write]
		cc.Bytes[mm.devDRAM][mem.Write] += dramBytes
		cc.Util[mm.devDRAM][mem.Write] += dramBytes / dram.PeakFor(mem.Write, c.Pattern, c.WriteBytes)

		if storeMiss > 0 {
			fetch := storeMiss * lines * float64(nvm.MediaBytes(lineSize))
			wbBytes := storeMiss * wb * lines * float64(nvm.MediaBytes(lineSize))
			cc.Time += storeMiss * nvm.AccessTime(mem.Read, c.Pattern, lineSize)
			cc.Bytes[mm.devNVM][mem.Read] += fetch
			cc.Bytes[mm.devNVM][mem.Write] += wbBytes
			cc.Util[mm.devNVM][mem.Read] += fetch / nvm.PeakFor(mem.Read, c.Pattern, lineSize)
			cc.Util[mm.devNVM][mem.Write] += wbBytes / nvm.PeakFor(mem.Write, mem.Random, lineSize)
		}
	}
	return cc
}
