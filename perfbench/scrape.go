package main

import (
	"fmt"
	"net/http"
	"strings"

	"dspaddr/internal/obs"
)

// exposition is one parsed /metrics scrape.
type exposition map[string]*obs.Family

func scrape(base string) (exposition, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s/metrics: status %d", base, resp.StatusCode)
	}
	return obs.ParseExposition(resp.Body)
}

// labelsMatch reports whether every want label is present with its
// value, or with one of several values separated by '|'.
func labelsMatch(have, want map[string]string) bool {
	for k, v := range want {
		ok := false
		for _, alt := range strings.Split(v, "|") {
			if have[k] == alt {
				ok = true
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// value sums the samples named exactly sample (a counter, a gauge or
// a histogram's _sum/_count) whose labels match want.
func (e exposition) value(family, sample string, want map[string]string) float64 {
	f := e[family]
	if f == nil {
		return 0
	}
	var total float64
	for _, s := range f.Samples {
		if s.Name == sample && labelsMatch(s.Labels, want) {
			total += s.Value
		}
	}
	return total
}

// scrapes holds the /metrics of every process of a topology at one
// instant: nodes first, then the gateway if there is one.
type scrapes struct {
	nodes   []exposition
	gateway exposition
}

func scrapeTopology(t *topology) (*scrapes, error) {
	s := &scrapes{}
	for _, p := range t.nodes {
		e, err := scrape(p.base)
		if err != nil {
			return nil, err
		}
		s.nodes = append(s.nodes, e)
	}
	if t.gateway != nil {
		e, err := scrape(t.gateway.base)
		if err != nil {
			return nil, err
		}
		s.gateway = e
	}
	return s, nil
}

// delta is the change of the metrics between two scrapes of one
// topology.
type delta struct{ before, after *scrapes }

// node sums a sample's change over every node.
func (d delta) node(family, sample string, want map[string]string) float64 {
	var v float64
	for i := range d.after.nodes {
		v += d.after.nodes[i].value(family, sample, want) - d.before.nodes[i].value(family, sample, want)
	}
	return v
}

// nodeEnd sums a gauge over every node at the end of the window.
func (d delta) nodeEnd(family string) float64 {
	var v float64
	for _, e := range d.after.nodes {
		v += e.value(family, family, nil)
	}
	return v
}

func (d delta) gate(family, sample string, want map[string]string) float64 {
	if d.after.gateway == nil {
		return 0
	}
	return d.after.gateway.value(family, sample, want) - d.before.gateway.value(family, sample, want)
}

// nodeMeanUS is a node histogram's mean observation over the window,
// in µs (0 when nothing was observed).
func (d delta) nodeMeanUS(family string, want map[string]string) (float64, float64) {
	n := d.node(family, family+"_count", want)
	if n == 0 {
		return 0, 0
	}
	return d.node(family, family+"_sum", want) / n * 1e6, n
}

func (d delta) gateMeanUS(family string, want map[string]string) (float64, float64) {
	n := d.gate(family, family+"_count", want)
	if n == 0 {
		return 0, 0
	}
	return d.gate(family, family+"_sum", want) / n * 1e6, n
}

// nodeShareMax is the largest share of forwarded requests one node
// took over the window.
func (d delta) nodeShareMax() float64 {
	if d.after.gateway == nil {
		return 0
	}
	per := make(map[string]float64)
	var total float64
	for _, s := range d.after.gateway["rcagate_forward_requests_total"].Samples {
		per[s.Labels["node"]] += s.Value
		total += s.Value
	}
	if f := d.before.gateway["rcagate_forward_requests_total"]; f != nil {
		for _, s := range f.Samples {
			per[s.Labels["node"]] -= s.Value
			total -= s.Value
		}
	}
	if total == 0 {
		return 0
	}
	var top float64
	for _, v := range per {
		top = max(top, v)
	}
	return top / total
}
