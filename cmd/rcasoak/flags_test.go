package main

import (
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// driverFlags are the internal -driver protocol the harness passes to
// its own re-exec'd driver processes; the package doc leaves them out.
var driverFlags = []string{"base", "burst", "driver", "fresh", "index", "mix", "rate", "run-for"}

// TestRemovedFlagsRejected: the flags folded into the constants they
// defaulted to must fail startup, so a script that still passes one
// fails loudly instead of running with its setting ignored.
func TestRemovedFlagsRejected(t *testing.T) {
	for _, arg := range []string{
		"-server-bin=rcaserve", "-faults=delay=20ms:4,error=128",
		"-queue=128", "-timeout=2s", "-p99=5s", "-rss=512", "-keep=true",
	} {
		name, _, _ := strings.Cut(arg, "=")
		t.Run(name, func(t *testing.T) {
			var code int
			// -h stops a run that accepted the flag before it starts.
			out := captureStderr(t, func() { code = realMain([]string{arg, "-h"}) })
			if code != 2 || !strings.Contains(out, "flag provided but not defined: "+name) {
				t.Fatalf("%s: exit %d, stderr %q; want it rejected as undefined", name, code, out)
			}
		})
	}
}

// TestDocListsDefinedFlags: the package doc's Flags block names
// exactly the user flags realMain defines; the rest are the driver's.
func TestDocListsDefinedFlags(t *testing.T) {
	usage := captureStderr(t, func() { realMain([]string{"-h"}) })
	defined, doc := definedFlags(usage), docFlags(t)
	var user []string
	for _, name := range defined {
		if !slices.Contains(driverFlags, name) {
			user = append(user, name)
		}
	}
	if !slices.Equal(user, doc) {
		t.Fatalf("defined user flags %v, doc lists %v", user, doc)
	}
	if len(user) != 8 || len(defined) != 8+len(driverFlags) {
		t.Fatalf("%d flags defined (%d user), want 8 user plus the %d driver flags: %v",
			len(defined), len(user), len(driverFlags), defined)
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
