package selection

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"parsel/internal/balance"
	"parsel/internal/machine"
	"parsel/internal/workload"
)

// updateGolden rewrites testdata/engine_golden.txt instead of comparing
// against it: go test ./internal/selection -run TestEngineGolden -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/engine_golden.txt instead of comparing against it")

// goldenCatalogue runs the engine over every algorithm × balancer, both
// layouts, five machine sizes and two topologies, single-rank and
// multi-rank, and renders one row per run: the bits of the simulated
// time, the machine-wide counters and the answer. Each (p, topology)
// machine is built once and reused for all of its runs, as the Selector
// reuses it.
func goldenCatalogue(t *testing.T) []string {
	t.Helper()
	const n = 3000
	var rows []string
	for _, p := range []int{1, 2, 3, 8, 17} {
		for _, topo := range []machine.Topology{machine.Crossbar, machine.Mesh2D} {
			params := machine.DefaultParams(p)
			params.Topology = topo
			m, err := machine.New(params)
			if err != nil {
				t.Fatal(err)
			}
			vals := make([]int64, p)
			many := make([][]int64, p)
			counters := make([]machine.Counters, p)
			row := func(name string, body func(pr *machine.Proc)) {
				sim, err := m.Run(func(pr *machine.Proc) {
					body(pr)
					counters[pr.ID()] = pr.Counters
				})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				answer := fmt.Sprint(vals[0])
				if many[0] != nil {
					answer = fmt.Sprint(many[0])
				}
				rows = append(rows, goldenRow(name, sim, counters, answer))
				clear(vals)
				clear(many)
			}
			for _, kind := range []workload.Kind{workload.Random, workload.Sorted} {
				shards := workload.Generate(kind, n, p, uint64(100+p))
				sorted := workload.Flatten(shards)
				slices.Sort(sorted)
				for _, alg := range AllAlgorithms {
					for _, bal := range balance.Methods {
						opts := Options{Algorithm: alg, Balancer: bal}
						name := fmt.Sprintf("%v/%v/%v/p%d/%v/single", alg, bal, kind, p, topo)
						row(name, func(pr *machine.Proc) {
							vals[pr.ID()], _ = Select(pr, shards[pr.ID()], n/3+1, opts)
						})
						if got := rows[len(rows)-1]; !strings.HasSuffix(got, fmt.Sprintf("\t%d", sorted[n/3])) {
							t.Errorf("%s: answer differs from the sort oracle %d", got, sorted[n/3])
						}
					}
				}
				ranks := []int64{1, n / 4, n / 2, 3 * n / 4, n}
				name := fmt.Sprintf("many/%v/p%d/%v/multi", kind, p, topo)
				row(name, func(pr *machine.Proc) {
					res, _ := SelectMany(pr, shards[pr.ID()], ranks, Options{})
					many[pr.ID()] = slices.Clone(res)
				})
				want := make([]int64, len(ranks))
				for i, r := range ranks {
					want[i] = sorted[r-1]
				}
				if got := rows[len(rows)-1]; !strings.HasSuffix(got, fmt.Sprintf("\t%v", want)) {
					t.Errorf("%s: answers differ from the sort oracle %v", got, want)
				}
			}
			m.Close()
		}
	}
	return rows
}

// goldenRow renders one catalogue row: the bits of the simulated time,
// the machine-wide counters and the answer.
func goldenRow(name string, sim float64, counters []machine.Counters, answer string) string {
	var sum machine.Counters
	for _, c := range counters {
		sum.Add(c)
	}
	return fmt.Sprintf("%s\t%016x\t%d %d %d %d %d\t%s", name,
		math.Float64bits(sim), sum.MsgsSent, sum.BytesSent,
		sum.MsgsReceived, sum.BytesReceived, sum.Ops, answer)
}

// TestEngineGolden pins the engine's simulated behaviour bit for bit:
// simulated time, every counter and every answer of the catalogue must
// equal the recorded rows. The rows depend only on the two-level cost
// arithmetic and the programs' message order, never on how the host
// moves a message, so any change to the fabric must pass unregenerated.
func TestEngineGolden(t *testing.T) {
	path := filepath.Join("testdata", "engine_golden.txt")
	got := strings.Join(goldenCatalogue(t), "\n") + "\n"
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	wantBytes, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (rerun with -update-golden to record): %v", err)
	}
	want := strings.Split(strings.TrimSuffix(string(wantBytes), "\n"), "\n")
	have := strings.Split(strings.TrimSuffix(got, "\n"), "\n")
	if len(have) != len(want) {
		t.Fatalf("catalogue has %d rows, golden has %d", len(have), len(want))
	}
	bad := 0
	for i := range want {
		if have[i] != want[i] {
			bad++
			if bad <= 5 {
				t.Errorf("row %d:\n got  %s\n want %s", i, have[i], want[i])
			}
		}
	}
	if bad > 5 {
		t.Errorf("%d of %d rows differ", bad, len(want))
	}
}

// TestEngineGoldenReplay reruns TestEngineGolden's fast randomized
// single-rank rows on p > 1 from a prefix memo captured by a run at
// another rank (rank n), and checks them against the recorded rows,
// which are not regenerated for it. At n = 3000 the p = 2 and 3 rows
// replay the parallel sample sort and the p = 8 and 17 rows the gather
// on processor 0. The capturing run itself must equal a plain run.
func TestEngineGoldenReplay(t *testing.T) {
	const n = 3000
	wantBytes, err := os.ReadFile(filepath.Join("testdata", "engine_golden.txt"))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, row := range strings.Split(strings.TrimSuffix(string(wantBytes), "\n"), "\n") {
		name, _, _ := strings.Cut(row, "\t")
		want[name] = row
	}
	replayed := 0
	for _, p := range []int{2, 3, 8, 17} {
		for _, topo := range []machine.Topology{machine.Crossbar, machine.Mesh2D} {
			params := machine.DefaultParams(p)
			params.Topology = topo
			m, err := machine.New(params)
			if err != nil {
				t.Fatal(err)
			}
			vals := make([]int64, p)
			counters := make([]machine.Counters, p)
			row := func(name string, shards [][]int64, rank int64, opts Options, pre *Prefix[int64]) string {
				sim, err := m.Run(func(pr *machine.Proc) {
					vals[pr.ID()], _ = SelectPrefix(pr, shards[pr.ID()], rank, opts, pre)
					counters[pr.ID()] = pr.Counters
				})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				return goldenRow(name, sim, counters, fmt.Sprint(vals[0]))
			}
			for _, kind := range []workload.Kind{workload.Random, workload.Sorted} {
				shards := workload.Generate(kind, n, p, uint64(100+p))
				for _, bal := range balance.Methods {
					opts := Options{Algorithm: FastRandomized, Balancer: bal}
					name := fmt.Sprintf("%v/%v/%v/p%d/%v/single", FastRandomized, bal, kind, p, topo)
					pre := NewPrefix[int64](p)
					if got, plain := row(name, shards, n, opts, pre), row(name, shards, n, opts, nil); got != plain {
						t.Errorf("capturing run differs from a plain run:\n got  %s\n want %s", got, plain)
					}
					if !pre.Seal() || !pre.Replays() {
						t.Fatalf("%s: capture did not record every processor", name)
					}
					for rep := 0; rep < 2; rep++ {
						if got := row(name, shards, n/3+1, opts, pre); got != want[name] {
							t.Errorf("replay %d:\n got  %s\n want %s", rep, got, want[name])
						}
						replayed++
					}
				}
			}
			m.Close()
		}
	}
	if replayed != 2*4*2*2*len(balance.Methods) {
		t.Errorf("replayed %d rows", replayed)
	}
}
