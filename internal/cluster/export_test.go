package cluster

// Adopt runs the join-time adoption of worker id's datasets, as a re-join
// would.
func (c *Coordinator) Adopt(id, addr string) { c.adopt(id, addr) }
