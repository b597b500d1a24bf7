package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// TestCatalogMatchesBenchmarkJSON keeps the metric lists here and in the
// repository's BENCHMARK.json identical, names, units and order.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	decls := func(ms []struct{ Name, Unit string }) []decl {
		var out []decl
		for _, m := range ms {
			out = append(out, decl{m.Name, m.Unit})
		}
		return out
	}
	if got := decls(doc.EndToEnd); !reflect.DeepEqual(got, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, catalog %v", got, endToEnd)
	}
	if got := decls(doc.PerLayer); !reflect.DeepEqual(got, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, catalog %v", got, perLayer)
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var want []string
	for _, w := range doc.Workloads {
		want = append(want, w.Name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", want, names)
	}
}
