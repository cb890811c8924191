//go:build !((linux || darwin) && (amd64 || arm64 || loong64 || mips64le || ppc64le || riscv64))

package pdm

import (
	"errors"
	"os"
)

// canMmapDisks: this host lacks mmap support or a 64-bit little-endian
// layout; file disks serve every run through pread/pwrite.
const canMmapDisks = false

func mmapFile(*os.File, int64) ([]byte, error) {
	return nil, errors.New("pdm: mmap not supported on this platform")
}

func munmapFile([]byte) error { return nil }
