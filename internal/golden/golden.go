// Package golden pins a test's rendered output against a committed
// file. Every golden test shares the one -update flag this package
// registers: run the test with -update to rewrite its file from the
// current output after an intended behaviour change, then review the
// diff like any other code change.
package golden

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files of the tests run from the current output")

// Check compares got with the file at path, failing t with both texts
// when they differ. Under -update it writes got to path instead.
func Check(t testing.TB, path, got string) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden snapshot (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("output diverged from %s (regenerate with -update if intended):\n--- golden ---\n%s\n--- got ---\n%s",
			path, want, got)
	}
}
