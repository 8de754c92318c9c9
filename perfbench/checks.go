package main

import (
	"fmt"
	"hash/fnv"
	"math"

	"github.com/tieredmem/hemem/internal/core"
	"github.com/tieredmem/hemem/internal/machine"
)

// outcome is an episode's simulated result: the workload's scores and
// the work counts of every layer, all fully determined by the seed. It
// is the behaviour fingerprint, compared exactly and never gated as
// performance.
type outcome struct {
	// Scores is GUPS for the gups workloads, and gold then besteffort
	// p99 latency (ns) for fleet.
	Scores []float64
	Faults int64
	// Migrator.
	MigPages, MigPromotions, MigDemotions int64
	// PEBS buffer: records accepted, dropped on overrun, and still
	// buffered at the end; Ingested is core's sample count.
	PEBSPushed, PEBSDropped, PEBSBuffered, Ingested uint64
	// core.
	CorePromotions, CoreDemotions int64
	CoolEpochs                    uint64
	// memmode model rows.
	RowsBuilt, RowsReused int64
	// Tenant lifecycle.
	Admitted, Queued, Rejected, Departed int64
	Audits                               int64
	MetadataBytes                        int64
}

func (o *outcome) addMachine(m *machine.Machine) {
	ms := m.Migrator.Stats()
	o.Faults += m.Faults()
	o.MigPages += ms.Pages
	o.MigPromotions += ms.Promotions
	o.MigDemotions += ms.Demotions
	o.Audits += m.AuditsRun()
	o.MetadataBytes += m.AS.MetadataBytes()
}

func (o *outcome) addHeMem(h *core.HeMem) {
	if b := h.Buffer(); b != nil {
		o.PEBSPushed += b.Pushed()
		o.PEBSDropped += b.Dropped()
		o.PEBSBuffered += uint64(b.Len())
	}
	st := h.Stats()
	o.Ingested += st.Samples
	o.CorePromotions += st.Promotions
	o.CoreDemotions += st.Demotions
	o.CoolEpochs += st.CoolEpochs
}

// digest hashes every field of the outcome. It is cut to 52 bits so it
// survives a JSON number exactly.
func (o outcome) digest() uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", o)
	return h.Sum64() & (1<<52 - 1)
}

// checker counts correctness checks attempted and failed, keeping the
// first few failure messages for the report.
type checker struct {
	attempted, failed int
	msgs              []string
}

func (c *checker) check(ok bool, format string, args ...any) {
	c.attempted++
	if ok {
		return
	}
	c.failed++
	if len(c.msgs) < 20 {
		c.msgs = append(c.msgs, fmt.Sprintf(format, args...))
	}
}

func (c *checker) failFrac() float64 {
	if c.attempted == 0 {
		return 0
	}
	return float64(c.failed) / float64(c.attempted)
}

// checkOutcome runs the per-episode invariants that need no reference
// value: finite positive scores, migrated pages = promotions +
// demotions, and PEBS conservation (every record offered is ingested,
// dropped on overrun, or still buffered).
func (c *checker) checkOutcome(w string, o outcome) {
	for i, s := range o.Scores {
		c.check(s > 0 && !math.IsInf(s, 0) && !math.IsNaN(s), "%s: score %d = %v, want finite and positive", w, i, s)
	}
	c.check(o.MigPages == o.MigPromotions+o.MigDemotions,
		"%s: migrated pages %d != promotions %d + demotions %d", w, o.MigPages, o.MigPromotions, o.MigDemotions)
	offered := o.PEBSPushed + o.PEBSDropped
	c.check(offered == o.Ingested+o.PEBSDropped+o.PEBSBuffered,
		"%s: PEBS offered %d != ingested %d + dropped %d + buffered %d", w, offered, o.Ingested, o.PEBSDropped, o.PEBSBuffered)
}
