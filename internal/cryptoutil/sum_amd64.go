//go:build amd64 && !purego

package cryptoutil

// block runs one SHA-256 compression of the 64-byte block p into the state
// h with the SHA extensions (sum_amd64.s).
//
//go:noescape
func block(h *[8]uint32, p *[blockSize]byte)

// nodeBlock writes HashNode(*l, *r) to out with one compression from the
// IV, assembling the padded node block in registers (sum_amd64.s). It
// reads exactly the 20 bytes of each child and writes exactly the 20 bytes
// of out, so all three may point into a level array.
//
//go:noescape
func nodeBlock(out, l, r *Hash)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// useBlock reports whether the CPU executes block: it needs the SHA
// extensions, SSSE3 and SSE4.1.
var useBlock = hasSHA()

func hasSHA() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const ssse3, sse41, sha = 1 << 9, 1 << 19, 1 << 29
	_, _, ecx1, _ := cpuid(1, 0)
	_, ebx7, _, _ := cpuid(7, 0)
	return ecx1&ssse3 != 0 && ecx1&sse41 != 0 && ebx7&sha != 0
}
