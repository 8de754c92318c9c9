package memmode

import (
	"math"
	"testing"

	"github.com/tieredmem/hemem/internal/sim"
)

// mcOracle estimates one target zone's hit rate and writeback per miss by
// sampling set compositions, the way the model was once computed: each
// sample draws k_j ~ Poisson(λ_j) lines from every zone (the target's own
// zone included), the target line hits with probability a/(a+X), and a
// miss evicts zone j's line in proportion to its rate mass k_j·a_j,
// writing it back if dirty.
func mcOracle(zs []zoneModel, target, samples int, seed uint64) (hit, wb float64) {
	rng := sim.NewRand(seed)
	preps := make([]sim.PoissonPrep, len(zs))
	for j := range zs {
		preps[j] = sim.NewPoissonPrep(zs[j].lambda)
	}
	rates := make([]float64, len(zs))
	a := zs[target].perLine
	var hitSum, wbSum, missSum float64
	for s := 0; s < samples; s++ {
		var compete float64
		for j := range zs {
			r := float64(rng.PoissonCached(preps[j])) * zs[j].perLine
			compete += r
			rates[j] = r
		}
		h := a / (a + compete)
		hitSum += h
		if compete > 0 {
			miss := 1 - h
			missSum += miss
			var w float64
			for j := range zs {
				w += rates[j] / compete * zs[j].dirty
			}
			wbSum += miss * w
		}
	}
	if missSum > 0 {
		wb = wbSum / missSum
	}
	return hitSum / float64(samples), wb
}

// raceEnabled is set by race_internal_test.go under the race detector,
// where the oracle runs fewer samples.
var raceEnabled bool

// zm builds a model row from its Poisson mean, per-line rate and dirty
// fraction.
func zm(lambda, perLine, dirty float64) zoneModel {
	return zoneModel{lambda: lambda, perLine: perLine, dirty: dirty}
}

// The quadrature must agree with a 400k-sample Monte-Carlo of the same
// model in both hit rate and writeback per miss.
func TestModelMatchesMonteCarloOracle(t *testing.T) {
	const gb = 1.0 / 192 // λ of 1 GB of lines over a 192 GB cache
	many := make([]zoneModel, 24)
	for i := range many {
		many[i] = zm(16*gb, 1e-9, 0)
		if i >= 16 {
			many[i].dirty = 1
		}
	}
	cases := []struct {
		name  string
		zones []zoneModel
	}{
		{"one zone", []zoneModel{zm(64*gb, 1e-9, 0.4)}},
		{"one zone over capacity", []zoneModel{zm(256*gb, 1e-9, 1)}},
		{"hot/cold 1e6 apart", []zoneModel{zm(16*gb, 1e-3, 1), zm(496*gb, 1e-9, 0)}},
		{"λ > 30", []zoneModel{zm(35, 2e-9, 0.5), zm(0.5, 1e-8, 1)}},
		{"write-only hot partition", []zoneModel{
			zm(128*gb, 4e-8, 1), zm(128*gb, 4e-8, 0), zm(256*gb, 1e-10, 0)}},
		{"24 zones, 16-23 dirty", many},
	}
	samples := 400_000
	if testing.Short() || raceEnabled {
		samples = 100_000
	}
	tol := 3e-3 * math.Sqrt(400_000/float64(samples))
	for _, tc := range cases {
		zs := append([]zoneModel(nil), tc.zones...)
		occupancy(zs)
		var worst float64
		for i := range zs {
			hit, wb := mcOracle(tc.zones, i, samples, uint64(17+i))
			dh, dw := math.Abs(zs[i].hit-hit), math.Abs(zs[i].wb-wb)
			worst = math.Max(worst, math.Max(dh, dw))
			if dh > tol || dw > tol {
				t.Errorf("%s zone %d: quadrature hit %.5f wb %.5f, oracle hit %.5f wb %.5f (tolerance %.1e)",
					tc.name, i, zs[i].hit, zs[i].wb, hit, wb, tol)
			}
		}
		t.Logf("%s: max |Δ| %.1e over %d zones", tc.name, worst, len(zs))
	}
}

// FuzzModel drives the quadrature with 1–8 zones decoded from the input:
// λ in 1e-4–100, per-line rates in 1e-15–1, dirty fractions in 0–1.
// Every hit and writeback rate must be a finite probability, and a lone
// zone must hit at the closed form (1−e^{−λ})/λ.
func FuzzModel(f *testing.F) {
	f.Add([]byte{0x80, 0x40, 0x00})
	f.Add([]byte{0xff, 0xff, 0xff, 0x00, 0x00, 0x00})
	f.Add([]byte{0x10, 0x00, 0x80, 0xf0, 0xff, 0x00, 0x60, 0x30, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		var zs []zoneModel
		for len(data) >= 3 && len(zs) < 8 {
			u := func(i int) float64 { return float64(data[i]) / 255 }
			zs = append(zs, zm(1e-4*math.Pow(1e6, u(0)), math.Pow(1e-15, u(1)), u(2)))
			data = data[3:]
		}
		if len(zs) == 0 {
			return
		}
		occupancy(zs)
		for i, z := range zs {
			for _, p := range []float64{z.hit, z.wb} {
				if math.IsNaN(p) || p < 0 || p > 1 {
					t.Fatalf("zone %d of %+v: hit %v wb %v, want finite probabilities", i, zs, z.hit, z.wb)
				}
			}
		}
		if len(zs) == 1 {
			lambda := zs[0].lambda
			if want := (1 - math.Exp(-lambda)) / lambda; math.Abs(zs[0].hit-want) > 1e-6 {
				t.Fatalf("lone zone λ=%v a=%v: hit %.9f, closed form %.9f", lambda, zs[0].perLine, zs[0].hit, want)
			}
		}
	})
}
