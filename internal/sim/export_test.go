package sim

// QueuedEvents is the number of events the kernel holds — heap and
// same-instant run queue, tombstones included — for the tests that pin
// "a timer that was stopped, a wait that was answered, leaves nothing
// behind".
func (k *Kernel) QueuedEvents() int { return k.heap.len() + k.runq.n }
