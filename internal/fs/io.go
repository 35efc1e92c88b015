package fs

import (
	"fractos/internal/proc"
	"fractos/internal/sim"
)

// handleIO serves FS-mediated reads and writes (FS mode): every byte
// is staged through the FS Process's memory between the client and the
// block device — the centralized model whose extra network transfer
// DAX eliminates (§6.4).
func (s *Service) handleIO(t *sim.Task, d *proc.Delivery, isWrite bool) {
	if d.Upstream(SlotCont) {
		return
	}
	f, ok := s.byID[d.U64(FSImmFile)]
	if !ok {
		d.ReplyStatus(SlotCont, StatusNoFile)
		return
	}
	off, n := d.U64(FSImmOff), d.U64(FSImmLen)
	if n == 0 || n > f.size || off > f.size-n {
		d.ReplyStatus(SlotCont, StatusBounds)
		return
	}
	data, ok := d.Cap(SlotData)
	if !ok || data.Size() != n {
		d.ReplyStatus(SlotCont, StatusBadArg)
		return
	}

	// One staging buffer serves the whole operation extent by extent.
	s.stageSem.Acquire(t)
	sb := s.stages[len(s.stages)-1]
	s.stages = s.stages[:len(s.stages)-1]
	defer func() {
		s.stages = append(s.stages, sb)
		s.stageSem.Release()
	}()

	// Walk the extent spans covered by [off, off+n).
	done := uint64(0)
	for done < n {
		cur := off + done
		ei := int(cur / ExtentSize)
		eo := cur % ExtentSize
		cn := ExtentSize - eo
		if cn > n-done {
			cn = n - done
		}
		if ei >= len(f.extents) {
			d.ReplyStatus(SlotCont, StatusBounds)
			return
		}
		ext := f.extents[ei]

		// The span stages through the head of the buffer and lands at
		// [done, done+cn) of the client's Memory.
		stage := Stage{Cap: sb.cap, Buf: s.P.Arena()[sb.off : sb.off+int(cn)]}
		var st uint64
		if isWrite {
			// client → staging → device.
			if err := s.P.MemoryCopyRange(t, data, done, sb.cap, 0, cn); err != nil {
				d.ReplyStatus(SlotCont, StatusIOErr)
				return
			}
			st = ext.vol.WriteAt(t, eo, cn, stage)
		} else {
			// device → staging → client.
			st = ext.vol.ReadAt(t, eo, cn, stage)
			if st == 0 {
				if err := s.P.MemoryCopyRange(t, sb.cap, 0, data, done, cn); err != nil {
					d.ReplyStatus(SlotCont, StatusIOErr)
					return
				}
			}
		}
		if st != 0 {
			d.ReplyStatus(SlotCont, StatusIOErr)
			return
		}
		done += cn
	}
	d.ReplyStatus(SlotCont, StatusOK)
}
