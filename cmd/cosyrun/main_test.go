package main

import (
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/cosy/cc"
	"repro/internal/cosy/kext"
	"repro/internal/cosy/lang"
	"repro/internal/sys"
)

// TestShippedExampleRegion runs the example region, which writes
// 1,024 bytes and reads them back, as `cosyrun -fn main` does.
func TestShippedExampleRegion(t *testing.T) {
	src, err := os.ReadFile("testdata/bulk.c")
	if err != nil {
		t.Fatal(err)
	}
	comp, err := cc.CompileMarked(string(src), "main")
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.New(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e := s.CosyEngine(kext.ModeDataSeg)
	var got int64
	s.Spawn("cosyrun", func(pr *sys.Proc) error {
		got, err = e.ExecRing(pr, lang.Encode(comp))
		return err
	})
	if err := s.Run(); err != nil || got != 2048 {
		t.Fatalf("bulk.c returned %d, %v; want 2048", got, err)
	}
}
