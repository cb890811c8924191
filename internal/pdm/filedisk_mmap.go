//go:build (linux || darwin) && (amd64 || arm64 || loong64 || mips64le || ppc64le || riscv64)

package pdm

import (
	"os"
	"syscall"
)

// canMmapDisks reports whether this host can serve a file disk from a shared
// memory mapping of its file: a 64-bit little-endian unix, so the mapping
// fits the address space and the record slab view applies to the mapped
// bytes directly. The pread/pwrite implementation remains the portable
// fallback (and the reference the mapped path is tested against).
const canMmapDisks = true

// mmapFile maps the file's full contents shared and read-write: stores into
// the mapping are stores into the page cache, exactly as pwrite's, so the
// bytes other readers of the file observe are identical — only the syscall
// per block disappears.
func mmapFile(f *os.File, size int64) ([]byte, error) {
	// The build tag restricts this file to 64-bit hosts, so any valid file
	// size fits an int.
	if size <= 0 {
		return nil, syscall.EINVAL
	}
	return syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
}

func munmapFile(b []byte) error { return syscall.Munmap(b) }
