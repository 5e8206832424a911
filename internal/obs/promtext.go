package obs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// This file is a minimal reader for the Prometheus text exposition
// format (v0.0.4) — just enough to round-trip what rcaserve renders.
// It exists so the metrics tests can assert structural invariants
// (every family carries HELP/TYPE, buckets are monotone, _sum/_count
// are consistent) and so rcasoak can scrape /metrics and diff counter
// families into its report, all without a client-library dependency.

// Sample is one exposition sample line.
type Sample struct {
	Name   string // full sample name, e.g. rcaserve_job_run_duration_seconds_bucket
	Labels map[string]string
	Value  float64
}

// Family groups the samples of one metric family with its metadata.
// For histogram/summary families the _bucket/_sum/_count samples are
// folded into the base-named family.
type Family struct {
	Name    string
	Help    string
	Type    string // counter | gauge | histogram | summary | "" when undeclared
	Samples []Sample
}

// ParseExposition reads a text exposition into families keyed by
// family name. Sample lines that precede (or lack) a HELP/TYPE
// declaration still produce a Family, with empty metadata — callers
// asserting hygiene can detect them.
func ParseExposition(r io.Reader) (map[string]*Family, error) {
	families := make(map[string]*Family)
	get := func(name string) *Family {
		f := families[name]
		if f == nil {
			f = &Family{Name: name}
			families[name] = f
		}
		return f
	}
	// declared maps a family name to its TYPE so suffixed histogram and
	// summary samples can be folded back into the base family.
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 3 {
				continue
			}
			switch fields[1] {
			case "HELP":
				f := get(fields[2])
				if len(fields) == 4 {
					f.Help = fields[3]
				}
			case "TYPE":
				if len(fields) == 4 {
					get(fields[2]).Type = fields[3]
				}
			}
			continue
		}
		s, err := parseSampleLine(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		fam := familyNameOf(s.Name, families)
		f := get(fam)
		f.Samples = append(f.Samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return families, nil
}

// familyNameOf resolves a sample name to its family: exact match, or
// the base name when a declared histogram/summary family owns the
// _bucket/_sum/_count suffix.
func familyNameOf(sample string, families map[string]*Family) string {
	if f := families[sample]; f != nil && f.Type != "" {
		return sample
	}
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(sample, suf); ok {
			if f := families[base]; f != nil && (f.Type == "histogram" || f.Type == "summary") {
				return base
			}
		}
	}
	return sample
}

func parseSampleLine(line string) (Sample, error) {
	s := Sample{}
	rest := line
	if i := strings.IndexAny(line, "{ "); i < 0 {
		return s, fmt.Errorf("malformed sample %q", line)
	} else if line[i] == '{' {
		s.Name = line[:i]
		end := strings.LastIndexByte(line, '}')
		if end < i {
			return s, fmt.Errorf("unterminated labels in %q", line)
		}
		labels, err := parseLabels(line[i+1 : end])
		if err != nil {
			return s, fmt.Errorf("%w in %q", err, line)
		}
		s.Labels = labels
		rest = strings.TrimSpace(line[end+1:])
	} else {
		s.Name = line[:i]
		rest = strings.TrimSpace(line[i+1:])
	}
	// Value, optionally followed by a timestamp we ignore.
	if i := strings.IndexByte(rest, ' '); i >= 0 {
		rest = rest[:i]
	}
	v, err := strconv.ParseFloat(rest, 64)
	if err != nil {
		return s, fmt.Errorf("bad value %q", rest)
	}
	s.Value = v
	return s, nil
}

func parseLabels(body string) (map[string]string, error) {
	labels := make(map[string]string)
	for len(body) > 0 {
		eq := strings.IndexByte(body, '=')
		if eq < 0 || len(body) < eq+2 || body[eq+1] != '"' {
			return nil, fmt.Errorf("malformed label pair")
		}
		name := body[:eq]
		rest := body[eq+2:]
		var val strings.Builder
		i := 0
		for ; i < len(rest); i++ {
			c := rest[i]
			if c == '\\' && i+1 < len(rest) {
				i++
				switch rest[i] {
				case 'n':
					val.WriteByte('\n')
				default:
					val.WriteByte(rest[i])
				}
				continue
			}
			if c == '"' {
				break
			}
			val.WriteByte(c)
		}
		if i == len(rest) {
			return nil, fmt.Errorf("unterminated label value")
		}
		labels[name] = val.String()
		body = rest[i+1:]
		body = strings.TrimPrefix(body, ",")
	}
	return labels, nil
}

// SumFamily adds up all sample values of a family (0 when absent).
// For histogram families only the _count samples are summed, making
// the result the total observation count.
func SumFamily(families map[string]*Family, name string) float64 {
	f := families[name]
	if f == nil {
		return 0
	}
	var total float64
	for _, s := range f.Samples {
		if f.Type == "histogram" || f.Type == "summary" {
			if !strings.HasSuffix(s.Name, "_count") {
				continue
			}
		}
		total += s.Value
	}
	return total
}
