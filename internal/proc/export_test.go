package proc

// Pending is how many of the Process's syscalls await their completion,
// replies included: zero once everything it posted has been answered.
func (p *Process) Pending() int { return len(p.pending) }

// Stale is how many reply tags the Process still treats as stale: the
// tags of calls that ended before their reply arrived (callOp.retire).
func (p *Process) Stale() int { return len(p.stale) }
