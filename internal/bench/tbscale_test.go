package bench

import (
	"strings"
	"testing"
)

// TestTBScaleSmoke runs the quick (64 GB) tbscale variant end to end —
// both the dense fixed-Step reference and the sparse event-driven Run — and
// checks the properties the experiment's table asserts: identical
// simulated outcomes, and metadata resident bytes that scale with the
// touched pages rather than the mapping. CI runs it under -race (the
// parallel sweep engine executes both cells concurrently).
func TestTBScaleSmoke(t *testing.T) {
	o := Opts{}
	dense := tbscaleRun(o, true)
	sparse := tbscaleRun(o, false)

	if dense.digest != sparse.digest {
		t.Fatalf("sparse event-driven run diverged from dense fixed-Step reference: %016x vs %016x",
			dense.digest, sparse.digest)
	}
	if dense.ops <= 0 || dense.faults <= 0 {
		t.Fatalf("degenerate run: ops=%v faults=%d", dense.ops, dense.faults)
	}
	if dense.touched != dense.total {
		t.Fatalf("dense row did not materialize the mapping: %d/%d", dense.touched, dense.total)
	}
	if sparse.touched >= sparse.total/2 {
		t.Fatalf("sparse row touched %d of %d pages — the schedule no longer leaves most of the mapping cold",
			sparse.touched, sparse.total)
	}
	if sparse.metaBytes >= dense.metaBytes/2 {
		t.Fatalf("sparse metadata %d B is not meaningfully below dense %d B",
			sparse.metaBytes, dense.metaBytes)
	}

	// The rendered experiment must be sweep-safe: byte-identical between
	// serial and parallel cell execution.
	render := func(jobs int) string {
		var b strings.Builder
		ro := o
		ro.Jobs = jobs
		e, err := ByID("tbscale")
		if err != nil {
			t.Fatal(err)
		}
		e.Run(&b, ro)
		return b.String()
	}
	serial, parallel := render(1), render(4)
	if serial != parallel {
		t.Fatalf("tbscale output differs between -jobs 1 and -jobs 4:\n--- serial ---\n%s\n--- jobs=4 ---\n%s", serial, parallel)
	}
	if !strings.Contains(serial, "digests MATCH") {
		t.Fatalf("experiment output does not report matching digests:\n%s", serial)
	}
}
