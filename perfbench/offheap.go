package main

import (
	"fmt"
	"os"
	"syscall"
	"unsafe"
)

// offheap is a fixed-capacity record buffer mapped outside the Go heap. The
// benchmark keeps its per-request records (latencies, committed-op stamps,
// spans) here so that they neither count toward the program's memory nor
// inflate the garbage collector's heap goal, which would let the program's
// own garbage grow with the benchmark's buffer sizes. Pages become resident
// only when written, so capacity can be generous.
type offheap[T any] struct {
	s   []T
	raw []byte
}

func newOffheap[T any](n int) (*offheap[T], error) {
	var zero T
	size := int(unsafe.Sizeof(zero)) * n
	if size == 0 {
		return &offheap[T]{}, nil
	}
	raw, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("map %d-byte record buffer: %w", size, err)
	}
	return &offheap[T]{s: unsafe.Slice((*T)(unsafe.Pointer(&raw[0])), n), raw: raw}, nil
}

// residentBytes is the memory the first used records occupy, rounded up
// to whole pages: what a peak-RSS reading must not charge to the program.
func (b *offheap[T]) residentBytes(used int) int64 {
	if b == nil || used <= 0 {
		return 0
	}
	var zero T
	page := int64(os.Getpagesize())
	n := int64(used) * int64(unsafe.Sizeof(zero))
	return (n + page - 1) / page * page
}

func (b *offheap[T]) free() {
	if b != nil && b.raw != nil {
		_ = syscall.Munmap(b.raw) // only fails on a bad mapping, which newOffheap never hands out
		b.s, b.raw = nil, nil
	}
}
