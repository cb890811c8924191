//go:build linux && !arm

package pdm

import (
	"os"
	"syscall"
)

// syncFileRangeWrite is SYNC_FILE_RANGE_WRITE, which the syscall package
// does not name: start writeback of the range's dirty pages, wait for none.
const syncFileRangeWrite = 0x2

// writeback starts writeback of the n bytes of f at off. An error is
// dropped: the hint only moves work earlier, and the Sync that follows
// waits for every byte of its range and reports what failed.
func writeback(f *os.File, off, n int64) {
	_ = syscall.SyncFileRange(int(f.Fd()), off, n, syncFileRangeWrite)
}
