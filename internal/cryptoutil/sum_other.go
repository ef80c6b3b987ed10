//go:build !amd64 || purego

package cryptoutil

// useBlock is false where no single-block kernel is built: every hash goes
// through crypto/sha256.
const useBlock = false

// block is never called: useBlock is false.
func block(h *[8]uint32, p *[blockSize]byte) { panic("cryptoutil: no single-block kernel") }

// nodeBlock is never called: useBlock is false.
func nodeBlock(out, l, r *Hash) { panic("cryptoutil: no single-block kernel") }
