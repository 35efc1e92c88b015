package route

// Events returns the scale actions taken so far.
func (a *Autoscaler) Events() []ScaleEvent { return a.events }
