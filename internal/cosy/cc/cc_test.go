package cc

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/cosy/lang"
)

func TestCompileMarkedBasic(t *testing.T) {
	src := `
int f(void) {
	int setup = 1;
	COSY_START;
	int fd = sys_open("/etc/conf", 0);
	sys_close(fd);
	cosy_return(fd);
	COSY_END;
	return setup;
}`
	c, err := CompileMarked(src, "f")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	var sysOps int
	for _, in := range c.Code {
		if in.Op == lang.OpSys {
			sysOps++
		}
	}
	if sysOps != 2 {
		t.Fatalf("sys ops = %d\n%s", sysOps, c.Dump())
	}
	if len(c.Init) != 1 || string(c.Init[0].Data) != "/etc/conf\x00" {
		t.Fatalf("init = %+v", c.Init)
	}
}

func TestNoRegion(t *testing.T) {
	src := `int f(void) { return 0; }`
	if _, err := CompileMarked(src, "f"); !errors.Is(err, ErrNoRegion) {
		t.Fatalf("err = %v", err)
	}
}

func TestMissingFunction(t *testing.T) {
	src := `int f(void) { return 0; }`
	if _, err := CompileMarked(src, "g"); err == nil {
		t.Fatal("missing function accepted")
	}
}

func TestDependencyWiring(t *testing.T) {
	// The fd produced by sys_open must be the same register consumed
	// by sys_read: Cosy-GCC's dependency resolution.
	src := `
int f(void) {
	COSY_START;
	char buf[64];
	int fd = sys_open("/f", 0);
	int n = sys_read(fd, buf, 64);
	sys_close(fd);
	cosy_return(n);
	COSY_END;
	return 0;
}`
	c, err := CompileMarked(src, "f")
	if err != nil {
		t.Fatal(err)
	}
	var openDst lang.Reg = lang.NoReg
	var readFdArg lang.Reg = lang.NoReg
	var closeFdArg lang.Reg = lang.NoReg
	for _, in := range c.Code {
		if in.Op != lang.OpSys {
			continue
		}
		switch in.Imm {
		case 0: // open
			openDst = in.Dst
		case 2: // read
			readFdArg = in.Args[0]
		case 1: // close
			closeFdArg = in.Args[0]
		}
	}
	// The fd variable's register receives the open result via Mov;
	// read/close consume that same variable register.
	if readFdArg == lang.NoReg || readFdArg != closeFdArg {
		t.Fatalf("fd registers differ: read=%d close=%d open-dst=%d", readFdArg, closeFdArg, openDst)
	}
}

func TestUnsupportedConstructsRejected(t *testing.T) {
	bad := []string{
		`int f(void) { COSY_START; return 5; COSY_END; return 0; }`,
		`int f(void) { COSY_START; int x = unknown_call(); COSY_END; return 0; }`,
		`int f(void) { COSY_START; int *p = &x; COSY_END; return 0; }`,
	}
	for _, src := range bad {
		if _, err := CompileMarked(src, "f"); err == nil {
			t.Errorf("accepted: %s", src)
		}
	}
}

func TestMarkerErrors(t *testing.T) {
	for _, src := range []string{
		`int f(void) { COSY_END; COSY_START; return 0; }`,
		`int f(void) { COSY_START; COSY_START; COSY_END; return 0; }`,
	} {
		if _, err := CompileMarked(src, "f"); err == nil {
			t.Errorf("accepted: %s", src)
		}
	}
}

func TestControlFlowInRegion(t *testing.T) {
	src := `
int f(void) {
	COSY_START;
	int s = 0;
	for (int i = 0; i < 10; i++) {
		if (i % 2 == 0) { s += i; } else { s += 1; }
	}
	cosy_return(s);
	COSY_END;
	return 0;
}`
	c, err := CompileMarked(src, "f")
	if err != nil {
		t.Fatal(err)
	}
	dump := c.Dump()
	if !strings.Contains(dump, "brz") || !strings.Contains(dump, "jmp") {
		t.Fatalf("no control flow in compound:\n%s", dump)
	}
}

func TestArrayStoresCompileToShmOps(t *testing.T) {
	src := `
int f(void) {
	COSY_START;
	char buf[32];
	buf[0] = 'x';
	int v = buf[0];
	cosy_return(v);
	COSY_END;
	return 0;
}`
	c, err := CompileMarked(src, "f")
	if err != nil {
		t.Fatal(err)
	}
	var loads, stores int
	for _, in := range c.Code {
		switch in.Op {
		case lang.OpLoad:
			loads++
		case lang.OpStore:
			stores++
		}
	}
	if loads != 1 || stores != 1 {
		t.Fatalf("loads=%d stores=%d", loads, stores)
	}
	if c.ShmSize < 32 {
		t.Fatalf("shm = %d", c.ShmSize)
	}
}

// TestRegionErrors: return, at any depth, is not how a region ends;
// cosy_return is. Calls other than Cosy's system calls and variables
// the region never declared are errors too.
func TestRegionErrors(t *testing.T) {
	for _, c := range []struct{ body, want string }{
		{`int x = 1; if (x) { while (x) { return x; } }`, "not return"},
		{`for (int i = 0; i < 3; i++) { return; }`, "not return"},
		{`return 0;`, "not return"},
		{`sys_close(other(3));`, "not a Cosy-callable"},
		{`cosy_return(1, 2);`, "takes one argument"},
		{`cosy_return(y);`, "undefined variable"},
		{`int a = 1; { int b = 2; } cosy_return(b);`, "undefined variable"},
	} {
		src := "int other(int v) { return v; }\nint f(void) { COSY_START; " + c.body + " COSY_END; return 0; }"
		if _, err := CompileMarked(src, "f"); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want %q", c.body, err, c.want)
		}
	}
}
