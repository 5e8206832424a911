package engine

import (
	"testing"

	"dspaddr/internal/model"
)

func TestRouteKeyTranslationInvariant(t *testing.T) {
	base := Request{
		Pattern: model.Pattern{Array: "A", Stride: 4, Offsets: []int{0, 1, 3, 6}},
		AGU:     model.AGUSpec{Registers: 2, ModifyRange: 1},
	}
	shifted := base
	shifted.Pattern.Array = "B"
	shifted.Pattern.Offsets = []int{7, 8, 10, 13}
	if RouteKey(base) != RouteKey(shifted) {
		t.Fatal("translated twin routed to a different key")
	}

	// Every parameter that changes the result must change the route.
	for name, mut := range map[string]func(*Request){
		"offsets":  func(r *Request) { r.Pattern.Offsets = []int{0, 1, 3, 7} },
		"stride":   func(r *Request) { r.Pattern.Stride = 8 },
		"regs":     func(r *Request) { r.AGU.Registers = 3 },
		"modrange": func(r *Request) { r.AGU.ModifyRange = 2 },
		"wrap":     func(r *Request) { r.InterIteration = true },
		"strategy": func(r *Request) { r.Strategy = "optimal" },
	} {
		req := base
		req.Pattern.Offsets = append([]int(nil), base.Pattern.Offsets...)
		mut(&req)
		if RouteKey(req) == RouteKey(base) {
			t.Errorf("%s change did not change the route key", name)
		}
	}

	// "" and "greedy" select the same solve and must share a route.
	greedy := base
	greedy.Strategy = "greedy"
	if RouteKey(greedy) != RouteKey(base) {
		t.Fatal(`"greedy" and "" routed differently`)
	}
}

// The strategy codes are part of every cache and route key, so a
// renumbering would re-home every job in a fleet: the digests below
// pin each served name's route for one request.
func TestRouteKeyStrategyCodesPinned(t *testing.T) {
	for name, want := range map[string]uint64{
		"":         0xb68413b02cd8e738,
		"greedy":   0xb68413b02cd8e738,
		"naive":    0x5c39ccb4ea42340,
		"smallest": 0xd2d5535fc286936b,
		"optimal":  0x1a7af998cffbf6c8,
	} {
		req := Request{
			Pattern:  model.Pattern{Array: "A", Stride: 4, Offsets: []int{0, 1, 3, 6}},
			AGU:      model.AGUSpec{Registers: 2, ModifyRange: 1},
			Strategy: name,
		}
		if got := RouteKey(req); got != want {
			t.Errorf("strategy %q: route key %#x, want %#x", name, got, want)
		}
		if allocs := testing.AllocsPerRun(100, func() { RouteKey(req) }); allocs != 0 {
			t.Errorf("strategy %q: key build allocates %v times", name, allocs)
		}
	}
}
