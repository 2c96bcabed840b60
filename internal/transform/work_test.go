package transform

import (
	"testing"

	"repro/internal/lang"
)

// workCases are the module sources Prepare's cost is stated on: the two
// stages the benchmark loads and Figure 3's compute.
func workCases(t testing.TB) []goldenCase {
	stages := embeddedModules(t, "../../bench/workloads.go")
	return []goldenCase{
		{"flat", stages["flatStageSource"], Options{}},
		{"deep", stages["deepStageSource"], Options{}},
		{"compute", computeSrc, Options{}},
	}
}

// production switches off TestMain's tree check after every pass, so that
// what is counted and timed is what Prepare costs a user.
func production(tb testing.TB) {
	check := inspect
	inspect = func(string, *lang.Program) {}
	tb.Cleanup(func() { inspect = check })
}

// TestPrepareWork bounds what one cold Prepare allocates. The count does
// not depend on the machine, so a reintroduced print → gofmt → parse →
// check round trip fails here rather than in the benchmark. With four round
// trips (PR 22) the flat stage cost 2 734 allocations and the deep stage
// 5 592.
func TestPrepareWork(t *testing.T) {
	production(t)
	limits := map[string]float64{"flat": 1500, "deep": 3000}
	for _, tc := range workCases(t) {
		limit, ok := limits[tc.name]
		if !ok {
			continue
		}
		src := map[string]string{"stage.go": tc.src}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := Prepare(src, tc.opts); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocations per Prepare", tc.name, allocs)
		if allocs > limit {
			t.Errorf("%s: Prepare allocates %.0f times, limit %.0f", tc.name, allocs, limit)
		}
	}
}

func BenchmarkPrepare(b *testing.B) {
	production(b)
	for _, tc := range workCases(b) {
		b.Run(tc.name, func(b *testing.B) {
			src := map[string]string{"stage.go": tc.src}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Prepare(src, tc.opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
