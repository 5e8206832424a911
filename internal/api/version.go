package api

import (
	"fmt"
	"log/slog"
	"os"
	"runtime/debug"
	"strings"
)

// BuildVersion derives a human-usable version string from the
// binary's embedded build info; rcaserve and rcagate both report it.
// A module-aware build already carries a (pseudo-)version with the
// revision baked in; only a plain "(devel)" build needs the VCS
// revision (and dirty marker) appended by hand.
func BuildVersion() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	v := bi.Main.Version
	if v != "" && v != "(devel)" {
		return v
	}
	var rev string
	dirty := false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return "devel"
	}
	if len(rev) > 12 {
		rev = rev[:12]
	}
	var b strings.Builder
	b.WriteString("devel+")
	b.WriteString(rev)
	if dirty {
		b.WriteString("+dirty")
	}
	return b.String()
}

// NewLogger builds the process logger rcaserve and rcagate write to
// stderr, from their -log-format flag: "text" or "json".
func NewLogger(format string) (*slog.Logger, error) {
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, nil)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, nil)), nil
	default:
		return nil, fmt.Errorf("unknown -log-format %q (want text or json)", format)
	}
}
