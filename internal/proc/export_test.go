package proc

// Pending is how many of the Process's syscalls await their completion,
// replies included: zero once everything it posted has been answered.
func (p *Process) Pending() int { return len(p.pending) }
