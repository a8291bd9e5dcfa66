package msg

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var updateWire = flag.Bool("update", false, "rewrite testdata/wire.golden from the current codec")

// TestWireGolden holds the wire format to testdata/wire.golden: one line
// per sampleMessages entry with its kind, WireSize and hex encoding. The
// hand-off and migration state volumes (E6, E12) and wtp's MTU packing
// read WireSize, so a codec change must move neither column; -update
// rewrites the file, and the diff is the statement of what moved.
func TestWireGolden(t *testing.T) {
	var out bytes.Buffer
	for i, m := range sampleMessages() {
		b, err := Encode(m)
		if err != nil {
			t.Fatalf("%d %v: Encode: %v", i, m.Kind(), err)
		}
		fmt.Fprintf(&out, "%02d %-16s %4d %x\n", i, m.Kind(), WireSize(m), b)
	}
	path := filepath.Join("testdata", "wire.golden")
	if *updateWire {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to record it)", err)
	}
	got, wantLines := bytes.Split(out.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := range got {
		if i >= len(wantLines) || !bytes.Equal(got[i], wantLines[i]) {
			wantLine := "<end of file>"
			if i < len(wantLines) {
				wantLine = string(wantLines[i])
			}
			t.Fatalf("codec diverges from %s at line %d:\n got  %s\n want %s", path, i+1, got[i], wantLine)
		}
	}
	if len(got) != len(wantLines) {
		t.Fatalf("codec output is a strict prefix of %s: %d lines, want %d", path, len(got), len(wantLines))
	}
}
