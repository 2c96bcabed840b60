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

// production switches off TestMain's checks after every pass, so that what
// is counted and timed is what Prepare costs a user.
func production(tb testing.TB) {
	seam := inspect
	inspect = func(string, *lang.Program, *lang.Info) {}
	tb.Cleanup(func() { inspect = seam })
}

// TestPrepareWork bounds what one cold Prepare does. It checks the program
// twice, the source as written and the woven program, and the woven check's
// tables are sized exactly for what it records, so they never grow; this
// holds for every golden case. The allocation count does not depend on the
// machine, so a print, a parse or a check that creeps back onto Load's path
// fails here rather than in the benchmark. With four print → gofmt → parse
// → check round trips the flat stage cost 2 734 allocations and the deep
// stage 5 592; with one print and one parse of the woven text, 1 239 and
// 2 548; with liveness on maps and go/parser's object resolution, 776 and
// 1 519; with four checks, 550 and 1 067.
func TestPrepareWork(t *testing.T) {
	production(t)
	prev := check
	t.Cleanup(func() { check = prev })
	var checks int
	var name string
	check = func(p *lang.Program, s lang.Sizes) (*lang.Info, error) {
		checks++
		info, err := prev(p, s)
		if err == nil && s != (lang.Sizes{}) {
			if got := (lang.Sizes{Types: len(info.Types), Defs: len(info.Defs), Uses: len(info.Uses)}); got != s {
				t.Errorf("%s: the woven check was sized for %+v and holds %+v", name, s, got)
			}
		}
		return info, err
	}
	for _, tc := range goldenCases(t) {
		checks, name = 0, tc.name
		prepare(t, tc.src, tc.opts)
		if checks != 2 {
			t.Errorf("%s: Prepare ran %d checks, want 2", tc.name, checks)
		}
	}
	check = prev

	limits := map[string]float64{"flat": 525, "deep": 1035}
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
