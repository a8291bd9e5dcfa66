package experiments

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// update rewrites the pins under testdata/ from this run:
//
//	go test ./internal/experiments -run 'Pinned|Golden' -update
//
// It is the only way those files change; the diff it leaves is the
// statement of what a PR moved.
var update = flag.Bool("update", false, "rewrite testdata/headlines.json and testdata/quick/ from this run")

// pin is one experiment's headlines in testdata/headlines.json.
type pin struct {
	Exp       string     `json:"exp"`
	Headlines []Headline `json:"headlines"`
}

// TestHeadlinesPinned holds every experiment's seeded headline — quick
// scale, seed 1 — to exact equality with testdata/headlines.json. The
// numbers are counts and ratios of counts from a deterministic
// simulation, so any difference at all is a behaviour change.
func TestHeadlinesPinned(t *testing.T) {
	got := make([]pin, len(Registry))
	for i, e := range Registry {
		got[i] = pin{e.Name, e.Headlines(1, SmallScale(), Opts{})}
		if len(got[i].Headlines) == 0 {
			t.Errorf("%s: no headline", e.Name)
		}
	}
	path := filepath.Join("testdata", "headlines.json")
	if *update {
		// One line per experiment, so a moved pin is a one-line diff.
		var out bytes.Buffer
		for i, p := range got {
			b, err := json.Marshal(p)
			if err != nil {
				t.Fatal(err)
			}
			sep := ",\n"
			if i == 0 {
				sep = "[\n"
			}
			out.WriteString(sep)
			out.Write(b)
		}
		out.WriteString("\n]\n")
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want []pin
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(want) != len(got) {
		t.Fatalf("%s pins %d experiments, the registry has %d", path, len(want), len(got))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("headline moved (rerun with -update only if that is intended):\n got %+v\nwant %+v", got[i], want[i])
		}
	}
}

// TestQuickTablesGolden pins, byte for byte, what `rdpbench -quick
// -seed 1` prints for every experiment whose tables hold no host time
// or memory.
func TestQuickTablesGolden(t *testing.T) {
	for _, e := range Registry {
		if e.Timed {
			continue
		}
		t.Run(e.Name, func(t *testing.T) {
			var got bytes.Buffer
			e.Render(&got, 1, SmallScale(), Opts{}, false)
			if !bytes.Contains(got.Bytes(), []byte("\n---")) {
				t.Fatalf("no table rendered:\n%s", got.Bytes())
			}
			path := filepath.Join("testdata", "quick", e.Name+".txt")
			if *update {
				if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("tables diverged from %s (rerun with -update only if that is intended)\ngot:\n%s", path, got.Bytes())
			}
		})
	}
}

// TestRegistryShape checks what the registry's consumers assume of
// every entry: a unique name and a claim line here, at least one
// headline in TestHeadlinesPinned, at least one table in
// TestQuickTablesGolden — or here, for the timed entries that test
// skips.
func TestRegistryShape(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Registry {
		if seen[e.Name] {
			t.Errorf("%s: listed twice", e.Name)
		}
		seen[e.Name] = true
		if e.Claim == "" {
			t.Errorf("%s: no claim line", e.Name)
		}
		if e.Timed && len(e.Tables(1, SmallScale(), Opts{})) == 0 {
			t.Errorf("%s: no tables at quick scale", e.Name)
		}
	}
}
