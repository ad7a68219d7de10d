package kflight_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/kflight"
	"repro/internal/ktrace"
	"repro/internal/sys"
	"repro/internal/workload"
)

// TestRecordGolden pins the kflight/v1 record's bytes: a small machine
// with kperf, kflight and ktrace on, whose extension dies mid-run and
// so cuts a postmortem with a trace tail before the run-end one. Two
// PostMarks with long user think share the CPU and a 16-block cache,
// so their requests carry user, kernel, copy, run-queue and disk
// segments. The record is built and encoded the way kprof writes it
// (the tracer's summary rides along, one-space indent), so a change to
// the record's schema, its field order or any figure in it shows here.
func TestRecordGolden(t *testing.T) {
	s, err := core.New(core.Options{
		Perf:        core.NewPerf(0),
		Flight:      &kflight.Config{EpochCycles: 1 << 16, Retain: 8},
		Trace:       &ktrace.Config{},
		CacheBlocks: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	spawnVictim(t, s)
	for i, dir := range []string{"/a", "/b"} {
		cfg := workload.DefaultPostMark()
		cfg.Dir, cfg.Seed = dir, uint64(i+1)
		cfg.InitialFiles, cfg.Transactions = 8, 24
		cfg.UserThink = 3_000_000
		s.Spawn("postmark", func(pr *sys.Proc) error {
			_, err := workload.PostMark(pr, cfg)
			return err
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	rec := s.Flight.Record()
	b, err := json.Marshal(s.Ktrace.Summary())
	if err != nil {
		t.Fatal(err)
	}
	rec.Ktrace = b
	var got bytes.Buffer
	enc := json.NewEncoder(&got)
	enc.SetIndent("", " ")
	if err := enc.Encode(rec); err != nil {
		t.Fatal(err)
	}

	const golden = "testdata/record.golden.json"
	want, _ := os.ReadFile(golden)
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	out := filepath.Join(os.TempDir(), "kflight-record.got.json")
	if err := os.WriteFile(out, got.Bytes(), 0o644); err != nil {
		t.Fatalf("record differs from %s; writing it failed: %v", golden, err)
	}
	t.Fatalf("record differs from %s; produced bytes are in %s", golden, out)
}
