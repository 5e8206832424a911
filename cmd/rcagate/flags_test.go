package main

import (
	"errors"
	"flag"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestRemovedFlagsRejected: the flags folded into the constants they
// defaulted to must fail startup, so a deploy script that still passes
// one fails loudly instead of running with its setting ignored.
func TestRemovedFlagsRejected(t *testing.T) {
	for _, arg := range []string{
		"-vnodes=128", "-probe-timeout=1s", "-fail-threshold=2",
		"-forward-timeout=30s", "-breaker-disable=true",
		"-breaker-window=32", "-breaker-min-samples=8",
		"-breaker-error-rate=0.5", "-breaker-latency-quantile=0.9",
		"-breaker-latency-threshold=250ms", "-breaker-open-for=2s",
		"-breaker-half-open-every=250ms", "-breaker-close-after=3",
	} {
		name, _, _ := strings.Cut(arg, "=")
		t.Run(name, func(t *testing.T) {
			var err error
			// -h stops a run that accepted the flag before it serves.
			captureStderr(t, func() { err = run([]string{arg, "-h"}) })
			if err == nil || errors.Is(err, flag.ErrHelp) ||
				!strings.Contains(err.Error(), "flag provided but not defined: "+name) {
				t.Fatalf("%s: got %v, want it rejected as undefined", name, err)
			}
		})
	}
}

// TestDocListsDefinedFlags: the package doc's Flags block names
// exactly the flags run defines.
func TestDocListsDefinedFlags(t *testing.T) {
	usage := captureStderr(t, func() { run([]string{"-h"}) })
	defined, doc := definedFlags(usage), docFlags(t)
	if !slices.Equal(defined, doc) {
		t.Fatalf("defined flags %v, doc lists %v", defined, doc)
	}
	if len(defined) != 5 {
		t.Fatalf("%d flags defined, want 5: %v", len(defined), defined)
	}
}

// captureStderr runs fn with os.Stderr redirected and returns what it
// wrote there.
func captureStderr(t *testing.T, fn func()) string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stderr")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stderr
	os.Stderr = f
	fn()
	os.Stderr = saved
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// definedFlags lists the flag names in a FlagSet's usage output, in
// its (sorted) order.
func definedFlags(usage string) []string {
	var names []string
	for _, m := range regexp.MustCompile(`(?m)^  -([a-z0-9-]+)`).FindAllStringSubmatch(usage, -1) {
		names = append(names, m[1])
	}
	return names
}

// docFlags lists the flags named in main.go's "Flags:" doc block,
// sorted.
func docFlags(t *testing.T) []string {
	t.Helper()
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	_, block, ok := strings.Cut(string(src), "// Flags:\n")
	if !ok {
		t.Fatal("main.go has no Flags: block")
	}
	block, _, _ = strings.Cut(block, "// Example:")
	var names []string
	for _, m := range regexp.MustCompile(`(?m)^//\t-([a-z0-9-]+)`).FindAllStringSubmatch(block, -1) {
		names = append(names, m[1])
	}
	slices.Sort(names)
	return names
}
