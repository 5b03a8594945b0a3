package main

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runCLI runs realMain with args on a fresh flag set and returns its exit
// code and everything it wrote to stderr.
func runCLI(t *testing.T, args ...string) (int, string) {
	t.Helper()
	oldArgs, oldFlags, oldStderr := os.Args, flag.CommandLine, os.Stderr
	defer func() { os.Args, flag.CommandLine, os.Stderr = oldArgs, oldFlags, oldStderr }()
	os.Args = append([]string{"hastm-bench"}, args...)
	flag.CommandLine = flag.NewFlagSet("hastm-bench", flag.ContinueOnError)
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stderr = w
	code := realMain()
	w.Close()
	out, _ := io.ReadAll(r)
	return code, string(out)
}

// The native backend emits no transaction events, so -trace must be a
// flag error there rather than a run that exits 0 and writes nothing.
func TestTraceRejectedOnNativeBackend(t *testing.T) {
	for _, mode := range [][]string{{"-service"}, {}} {
		path := filepath.Join(t.TempDir(), "t.jsonl")
		args := append(append([]string{}, mode...), "-backend", "native", "-quick", "-trace", path)
		code, stderr := runCLI(t, args...)
		if code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if !strings.Contains(stderr, "-trace") {
			t.Errorf("%v: stderr %q does not name the flag", args, stderr)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("%v: trace file exists (stat err %v)", args, err)
		}
	}
}
