package harness

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"parsel"
	"parsel/internal/workload"
)

// updateGolden rewrites the recorded experiment outputs instead of
// comparing against them: go test ./internal/harness -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/*.golden instead of comparing against them")

// checkGolden compares out with testdata/<name>.golden byte for byte. The
// quick grids are deterministic per seed, so any difference is a change
// in what an experiment measures or prints.
func checkGolden(t *testing.T, name, out string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (rerun with -update-golden to record): %v", err)
	}
	if out == string(want) {
		return
	}
	have, wantLines := strings.Split(out, "\n"), strings.Split(string(want), "\n")
	for i := range min(len(have), len(wantLines)) {
		if have[i] != wantLines[i] {
			t.Errorf("%s differs from %s at line %d:\n got: %s\nwant: %s", name, path, i+1, have[i], wantLines[i])
			return
		}
	}
	t.Errorf("%s has %d lines, %s has %d", name, len(have), path, len(wantLines))
}

func runQuick(t *testing.T, id string) string {
	t.Helper()
	exp, ok := ByID(id)
	if !ok {
		t.Fatalf("experiment %q not found", id)
	}
	var buf bytes.Buffer
	if err := exp.Run(Config{Out: &buf, Seeds: 1, Quick: true}); err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	return buf.String()
}

func TestByID(t *testing.T) {
	for _, e := range Experiments {
		got, ok := ByID(e.ID)
		if !ok || got.ID != e.ID {
			t.Errorf("ByID(%q) failed", e.ID)
		}
		if e.Title == "" {
			t.Errorf("%s has no title", e.ID)
		}
	}
	if _, ok := ByID("nope"); ok {
		t.Error("ByID accepted unknown id")
	}
}

func TestEveryExperimentRunsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("quick harness sweep still takes seconds")
	}
	for _, e := range Experiments {
		out := runQuick(t, e.ID)
		if !strings.Contains(out, "#") {
			t.Errorf("%s produced no captioned output", e.ID)
		}
		if len(strings.Split(strings.TrimSpace(out), "\n")) < 3 {
			t.Errorf("%s produced fewer than 3 lines:\n%s", e.ID, out)
		}
		checkGolden(t, e.ID, out)
	}
}

func TestCSVOutput(t *testing.T) {
	exp, _ := ByID("fig1r")
	var buf bytes.Buffer
	if err := exp.Run(Config{Out: &buf, Seeds: 1, Quick: true, CSV: true}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "p,rand,fastrand") {
		t.Errorf("missing CSV header:\n%s", out)
	}

	exp, _ = ByID("fig2")
	buf.Reset()
	if err := exp.Run(Config{Out: &buf, Seeds: 1, Quick: true, CSV: true}); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig2.csv", buf.String())
}

func TestMeasureAveragesSeeds(t *testing.T) {
	cfg := Config{Seeds: 2, Quick: true}
	c := measure(cfg, spec{alg: parsel.MedianOfMedians, bal: parsel.NoBalance, kind: workload.Random, n: 8 << 10, p: 4})
	if c.sim <= 0 || c.iters <= 0 {
		t.Errorf("empty measurement: %+v", c)
	}
}

func TestSizeName(t *testing.T) {
	cases := map[int64]string{
		128 << 10: "128k",
		512 << 10: "512k",
		2 << 20:   "2M",
		1000:      "1000",
	}
	for n, want := range cases {
		if got := sizeName(n); got != want {
			t.Errorf("sizeName(%d) = %q, want %q", n, got, want)
		}
	}
}

func TestMeasurePrim(t *testing.T) {
	for _, op := range []primOp{primBroadcast, primCombine, primPrefix, primConcat, primTransport} {
		if v := measurePrim(4, 64, op); v <= 0 {
			t.Error("primitive reported nonpositive time")
		}
	}
}
