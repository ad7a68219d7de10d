package bench

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
)

// The BENCH_repro.json gate behind cmd/benchdiff. Every experiment
// record is a pure function of simulated behaviour, so the gate walks
// the raw JSON of both documents and demands that every leaf — each
// number, string and bool — be identical: a leaf that changed, went
// missing or is new fails. Host time is the only exemption: the
// document header (timestamps, provenance, wall and serial seconds,
// notes) is never walked, and each experiment's wall_seconds is
// skipped.

// LeafDiff is one leaf that differs between two documents. Base and
// Cur hold the leaf's JSON literal; an empty side means the leaf is
// absent there.
type LeafDiff struct {
	Path      string
	Base, Cur string
}

// DiffReport is the outcome of one comparison.
type DiffReport struct {
	// Compared counts the base document's leaves.
	Compared int
	// Diffs lists every differing leaf, by path.
	Diffs []LeafDiff
}

// Failed reports whether any leaf differs.
func (r *DiffReport) Failed() bool { return len(r.Diffs) > 0 }

// Format renders the report: a count line, then one line per
// differing leaf.
func (r *DiffReport) Format(w io.Writer) {
	fmt.Fprintf(w, "benchdiff: %d leaves compared, %d differ\n", r.Compared, len(r.Diffs))
	for _, d := range r.Diffs {
		switch {
		case d.Cur == "":
			fmt.Fprintf(w, "  missing  %s: %s\n", d.Path, d.Base)
		case d.Base == "":
			fmt.Fprintf(w, "  new      %s: %s\n", d.Path, d.Cur)
		default:
			fmt.Fprintf(w, "  changed  %s: %s -> %s\n", d.Path, d.Base, d.Cur)
		}
	}
}

// DiffRepro compares the experiments of two BENCH_repro.json
// documents as they are on disk, so a field the Go types no longer
// carry shows as missing instead of vanishing in a decode.
func DiffRepro(base, cur []byte) (*DiffReport, error) {
	bl, err := reproLeaves(base)
	if err != nil {
		return nil, fmt.Errorf("bench: base: %w", err)
	}
	cl, err := reproLeaves(cur)
	if err != nil {
		return nil, fmt.Errorf("bench: current: %w", err)
	}
	rep := &DiffReport{Compared: len(bl)}
	for _, p := range sortedMapKeys(bl) {
		if cl[p] != bl[p] {
			rep.Diffs = append(rep.Diffs, LeafDiff{Path: p, Base: bl[p], Cur: cl[p]})
		}
	}
	for _, p := range sortedMapKeys(cl) {
		if _, ok := bl[p]; !ok {
			rep.Diffs = append(rep.Diffs, LeafDiff{Path: p, Cur: cl[p]})
		}
	}
	sort.Slice(rep.Diffs, func(i, j int) bool { return rep.Diffs[i].Path < rep.Diffs[j].Path })
	return rep, nil
}

// reproLeaves flattens a document's experiments into leaf path ->
// JSON literal. A path is the experiment name plus the JSON keys
// below it. Numbers decode as json.Number, so int64 leaves compare as
// exact literals.
func reproLeaves(doc []byte) (map[string]string, error) {
	var r struct {
		Experiments []any `json:"experiments"`
	}
	dec := json.NewDecoder(bytes.NewReader(doc))
	dec.UseNumber()
	if err := dec.Decode(&r); err != nil {
		return nil, err
	}
	if r.Experiments == nil {
		return nil, errors.New("no experiments")
	}
	leaves := make(map[string]string)
	for i, name := range elementKeys(r.Experiments) {
		exp := r.Experiments[i]
		if obj, ok := exp.(map[string]any); ok {
			delete(obj, "wall_seconds")
		}
		walkLeaves(leaves, name, exp)
	}
	return leaves, nil
}

// walkLeaves records every leaf under v, prefixing each path with
// path.
func walkLeaves(leaves map[string]string, path string, v any) {
	switch v := v.(type) {
	case map[string]any:
		for _, k := range sortedMapKeys(v) {
			walkLeaves(leaves, path+"/"+k, v[k])
		}
	case []any:
		for i, k := range elementKeys(v) {
			walkLeaves(leaves, path+"/"+k, v[i])
		}
	default:
		// A json.Number, string, bool or nil: Marshal cannot fail.
		lit, _ := json.Marshal(v)
		leaves[path] = string(lit)
	}
}

// elementKeys names each element of an array. When every element is
// an object with a distinct "name" or "op" string (experiments,
// ktrace ops), that string is its key, so an inserted element does
// not shift its neighbours' paths; any other array (bucket counts) is
// keyed by index.
func elementKeys(arr []any) []string {
	keys := make([]string, len(arr))
	seen := make(map[string]bool, len(arr))
	for i, e := range arr {
		obj, _ := e.(map[string]any)
		k, ok := obj["name"].(string)
		if !ok {
			k, ok = obj["op"].(string)
		}
		if !ok || seen[k] {
			for j := range keys {
				keys[j] = strconv.Itoa(j)
			}
			return keys
		}
		seen[k] = true
		keys[i] = k
	}
	return keys
}

func sortedMapKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
