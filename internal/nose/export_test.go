package nose

// Ports is the node's port registry, the ports Fail would close.
func Ports(nd *Node) []*Port { return nd.ports }
