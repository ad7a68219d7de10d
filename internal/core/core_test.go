package core

import (
	"testing"

	"repro/internal/sys"
)

func TestBootVariants(t *testing.T) {
	cases := []Options{
		{},
		{FS: FSBtfs},
		{Wrap: WrapKmalloc},
		{Wrap: WrapVmalloc},
		{Wrap: WrapKefence},
		{FS: FSBtfs, KGCCModule: true},
	}
	for i, opts := range cases {
		s, err := New(opts)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		s.Spawn("smoke", func(pr *sys.Proc) error {
			fd, err := pr.Creat("/hello")
			if err != nil {
				return err
			}
			ub, err := pr.Mmap(100)
			if err != nil {
				return err
			}
			if _, err := pr.Write(fd, ub); err != nil {
				return err
			}
			if err := pr.Close(fd); err != nil {
				return err
			}
			a, err := pr.Stat("/hello")
			if err != nil {
				return err
			}
			if a.Size != 100 {
				t.Errorf("case %d: size = %d", i, a.Size)
			}
			return nil
		})
		if err := s.Run(); err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
	}
}

func TestBootErrors(t *testing.T) {
	if _, err := New(Options{KGCCModule: true}); err == nil {
		t.Fatal("KGCCModule without btfs accepted")
	}
	if _, err := New(Options{FS: FSKind(99)}); err == nil {
		t.Fatal("bogus FS kind accepted")
	}
	if _, err := New(Options{Wrap: WrapMode(99)}); err == nil {
		t.Fatal("bogus wrap mode accepted")
	}
}

func TestKernelAllocExposure(t *testing.T) {
	s, _ := New(Options{Wrap: WrapKefence})
	if s.KernelAlloc() != s.Kef {
		t.Fatal("KernelAlloc != kefence allocator")
	}
	s2, _ := New(Options{})
	if s2.KernelAlloc() != nil {
		t.Fatal("unwrapped system has a wrap allocator")
	}
}

func TestDeviceRegisteredAtBoot(t *testing.T) {
	s, _ := New(Options{})
	if _, ok := s.NS.LookupDevice("/dev/kernevents"); !ok {
		t.Fatal("/dev/kernevents not registered")
	}
}

func TestTraceEnable(t *testing.T) {
	s, _ := New(Options{})
	rec := s.EnableTrace()
	s.Spawn("p", func(pr *sys.Proc) error {
		pr.Getpid()
		return nil
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if rec.TotalCalls() != 1 {
		t.Fatalf("trace calls = %d", rec.TotalCalls())
	}
}

func TestInstrumentDcacheEmitsEvents(t *testing.T) {
	s, _ := New(Options{})
	s.InstrumentDcache()
	s.Mon.RingEnabled = true
	s.Spawn("p", func(pr *sys.Proc) error {
		fd, err := pr.Creat("/f")
		if err != nil {
			return err
		}
		return pr.Close(fd)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if s.Mon.Logged == 0 {
		t.Fatal("no dcache events logged")
	}
}
