// Package services mirrors the repo's registry Client surface for the
// mustuse testdata.
package services

// Cap stands in for proc.Cap.
type Cap struct{}

// Task stands in for *sim.Task.
type Task struct{}

// Client mirrors the real registry handle.
type Client struct{}

// Register mirrors the real signature: member id plus error.
//
//fractos:mustuse an unchecked Register serves unregistered
func (c *Client) Register(t *Task, name string, cp Cap, node int) (uint64, error) {
	return 0, nil
}

// Deregister mirrors the real signature.
//
//fractos:mustuse an unchecked Deregister leaks registry membership
func (c *Client) Deregister(t *Task, name string, id uint64) error { return nil }

// Resolve is not marked: its error may be dropped.
func (c *Client) Resolve(t *Task, name string) (Cap, error) { return Cap{}, nil }
