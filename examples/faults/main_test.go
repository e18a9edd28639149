package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestOutputMatchesGolden runs the example and compares its stdout with the
// committed output_golden.txt byte for byte.
func TestOutputMatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole example")
	}
	out, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	stdout := os.Stdout
	os.Stdout = out
	main()
	os.Stdout = stdout
	got, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("output_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("stdout drifted from output_golden.txt\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}
}
