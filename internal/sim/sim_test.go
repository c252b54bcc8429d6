package sim

import (
	"errors"
	"reflect"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
)

func TestTableFormatting(t *testing.T) {
	tab := &Table{
		Title:   "demo",
		Columns: []string{"a", "bbbb"},
		Notes:   []string{"a note"},
	}
	tab.AddRow("1", "2")
	tab.AddRow("333", "4")
	out := tab.String()
	if !strings.Contains(out, "== demo ==") || !strings.Contains(out, "a note") {
		t.Fatalf("rendering missing parts:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) < 5 {
		t.Fatalf("too few lines:\n%s", out)
	}
}

func TestParallelForRunsAll(t *testing.T) {
	var count int64
	if err := parallelFor(8, 100, func(i int) error {
		atomic.AddInt64(&count, 1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if count != 100 {
		t.Fatalf("ran %d of 100", count)
	}
}

func TestParallelForPropagatesError(t *testing.T) {
	sentinel := errors.New("boom")
	err := parallelFor(4, 10, func(i int) error {
		if i == 7 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("got %v", err)
	}
	// Single-element path too.
	if err := parallelFor(1, 1, func(int) error { return sentinel }); !errors.Is(err, sentinel) {
		t.Fatal("serial path lost the error")
	}
}

func TestSplitWorkersBudget(t *testing.T) {
	opts := QuickOptions()
	opts.Workers = 8
	for _, tc := range []struct {
		n, outer, inner int
	}{
		{1, 1, 8},
		{2, 2, 4},
		{3, 3, 2},
		{8, 8, 1},
		{100, 8, 1},
		{0, 1, 8},
	} {
		outer, inner := opts.splitWorkers(tc.n)
		if outer != tc.outer || inner != tc.inner {
			t.Fatalf("splitWorkers(%d) = (%d, %d), want (%d, %d)", tc.n, outer, inner, tc.outer, tc.inner)
		}
		if outer*inner > 8 {
			t.Fatalf("splitWorkers(%d) oversubscribes: %d×%d > 8", tc.n, outer, inner)
		}
	}
	// Unset budget falls back to GOMAXPROCS and never returns zeros.
	opts.Workers = 0
	outer, inner := opts.splitWorkers(4)
	if outer < 1 || inner < 1 {
		t.Fatalf("default budget degenerate: (%d, %d)", outer, inner)
	}
}

func TestSeedForStableAndDistinct(t *testing.T) {
	opts := QuickOptions()
	a := seedFor(opts, "fig11/x")
	b := seedFor(opts, "fig11/x")
	c := seedFor(opts, "fig11/y")
	if a != b {
		t.Fatal("seedFor not deterministic")
	}
	if a == c {
		t.Fatal("different labels collided")
	}
}

func TestExperimentRegistry(t *testing.T) {
	names := ExperimentNames()
	if len(names) != len(Experiments) {
		t.Fatalf("%d names for %d experiments", len(names), len(Experiments))
	}
	for _, want := range []string{"table1", "fig9", "fig11", "fig15a", "pruning-ablation"} {
		if _, ok := Experiments[want]; !ok {
			t.Fatalf("experiment %q missing from registry", want)
		}
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatal("names not sorted")
		}
	}
}

// TestQuickExperimentsRun drives every registered experiment at
// reduced size — the integration test that every figure's code path
// executes end to end.
func TestQuickExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	opts := QuickOptions()
	for _, name := range ExperimentNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			tab, err := Experiments[name](opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(tab.Rows) == 0 {
				t.Fatalf("%s produced no rows", name)
			}
			for _, row := range tab.Rows {
				if len(row) != len(tab.Columns) {
					t.Fatalf("%s: row width %d, want %d", name, len(row), len(tab.Columns))
				}
			}
		})
	}
}

// TestFig12GeospherePerClientFlat asserts the Figure 12 invariant at
// quick scale: Geosphere's per-client throughput does not collapse as
// clients are added.
func TestFig12GeospherePerClientFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	opts := QuickOptions()
	opts.Frames = 10
	tab, err := Fig12(opts)
	if err != nil {
		t.Fatal(err)
	}
	perClient := make([]float64, 0, len(tab.Rows))
	for _, row := range tab.Rows {
		v, err := strconv.ParseFloat(row[len(row)-1], 64)
		if err != nil {
			t.Fatal(err)
		}
		perClient = append(perClient, v)
	}
	if perClient[len(perClient)-1] < 0.5*perClient[0] {
		t.Fatalf("Geosphere per-client throughput collapsed: %v", perClient)
	}
}

// TestIterativeReceiverWorkerInvariant pins the Options.Workers
// contract for the iterative-receiver experiment, whose SNR points run
// in parallel: the table must not depend on the worker budget.
func TestIterativeReceiverWorkerInvariant(t *testing.T) {
	opts := QuickOptions()
	opts.Frames, opts.NumSymbols = 1, 2
	opts.Workers = 1
	ref, err := IterativeReceiver(opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Workers = 5
	got, err := IterativeReceiver(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Rows, ref.Rows) {
		t.Fatalf("workers=5 rows %v, want %v", got.Rows, ref.Rows)
	}
}
