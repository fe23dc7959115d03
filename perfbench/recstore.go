package main

import (
	"sync/atomic"
	"time"

	"ccam/internal/storage"
)

// recStore is a storage.Store that forwards to another and records
// every physical page read with its duration. The traced run builds
// its own netfile.File on one, so storage reads are counted at the
// boundary without instrumenting the program.
type recStore struct {
	storage.Store
	reads, readNanos atomic.Int64
}

func (r *recStore) ReadPage(id storage.PageID, buf []byte) error {
	t := time.Now()
	err := r.Store.ReadPage(id, buf)
	r.readNanos.Add(int64(time.Since(t)))
	r.reads.Add(1)
	return err
}

// ioCount is a snapshot of a recStore's counters.
type ioCount struct{ reads, readNanos int64 }

func (r *recStore) count() ioCount { return ioCount{r.reads.Load(), r.readNanos.Load()} }

func (c ioCount) sub(o ioCount) ioCount { return ioCount{c.reads - o.reads, c.readNanos - o.readNanos} }
