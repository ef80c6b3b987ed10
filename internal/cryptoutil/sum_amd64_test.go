//go:build linux && amd64 && !purego

package cryptoutil

import (
	"bytes"
	"os"
	"runtime/debug"
	"syscall"
	"testing"
)

// TestNodeKernelStaysInBounds pins nodeBlock's memory footprint: it reads
// exactly the 20 bytes of each child and writes exactly the 20 bytes of out.
// Each operand in turn is placed flush against a PROT_NONE guard page, at
// the end of the page before it and at the start of the page after it, so
// a load or store one byte too wide faults here (reported as a failure,
// not a crash), and every other byte of the page is a canary that must come
// back unchanged. A level array's last node sits at such an edge whenever
// the array ends where a mapping does.
func TestNodeKernelStaysInBounds(t *testing.T) {
	if !useBlock {
		t.Skip("CPU lacks the SHA extensions; nodeBlock never runs")
	}
	page := os.Getpagesize()
	mem, err := syscall.Mmap(-1, 0, 3*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	defer syscall.Munmap(mem)
	for _, guard := range [][]byte{mem[:page], mem[2*page:]} {
		if err := syscall.Mprotect(guard, syscall.PROT_NONE); err != nil {
			t.Fatalf("mprotect: %v", err)
		}
	}
	data := mem[page : 2*page]

	l, r := HashBytes([]byte("left")), HashBytes([]byte("right"))
	want := truncSHA256(nodePreimage(l, r))
	first, last, mid := 0, page-HashSize, page/2
	for _, at := range []struct {
		name        string
		out, lo, ro int
	}{
		{"left child at page end", mid, last, mid - 64},
		{"right child at page end", mid, mid - 64, last},
		{"out at page end", last, mid, mid - 64},
		{"left child at page start", mid, first, mid - 64},
		{"right child at page start", mid, mid - 64, first},
		{"out at page start", first, mid, mid - 64},
	} {
		for i := range data {
			data[i] = 0xA5
		}
		copy(data[at.lo:], l[:])
		copy(data[at.ro:], r[:])
		expect := bytes.Clone(data)
		copy(expect[at.out:], want[:])

		out := (*Hash)(data[at.out : at.out+HashSize])
		lp := (*Hash)(data[at.lo : at.lo+HashSize])
		rp := (*Hash)(data[at.ro : at.ro+HashSize])
		if fault := nodeBlockCatchingFaults(out, lp, rp); fault != nil {
			t.Fatalf("%s: nodeBlock faulted: %v", at.name, fault)
		}
		if *out != want {
			t.Fatalf("%s: nodeBlock = %v, want %v", at.name, *out, want)
		}
		if i := firstDiff(data, expect); i >= 0 {
			t.Fatalf("%s: byte %d of the page (out at %d) changed to %#x", at.name, i, at.out, data[i])
		}
	}
}

// nodeBlockCatchingFaults turns a fault inside nodeBlock into a returned
// value instead of a crash of the test binary.
func nodeBlockCatchingFaults(out, l, r *Hash) (fault any) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer func() { fault = recover() }()
	nodeBlock(out, l, r)
	return nil
}

func firstDiff(a, b []byte) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}
