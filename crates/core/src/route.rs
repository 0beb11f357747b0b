//! Routing: longest-prefix match over a small table.
//!
//! §4.1 motivates the single-stack design partly with routing: "routing
//! relies on a single stack, at least up to the network layer" — packets may
//! arrive on one interface and leave on another, so interface selection
//! happens here, in the network layer, not at the socket (which is exactly
//! why a per-interface parallel stack cannot work).

use crate::types::IfaceId;
use std::net::Ipv4Addr;

/// One route: `dest/prefix_len` reachable via `iface`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Route {
    /// Destination network.
    pub dest: Ipv4Addr,
    /// Prefix length in bits (32 = host route).
    pub prefix_len: u8,
    /// Outgoing interface.
    pub iface: IfaceId,
}

impl Route {
    fn matches(&self, ip: Ipv4Addr) -> bool {
        let mask = if self.prefix_len == 0 {
            0
        } else {
            u32::MAX << (32 - self.prefix_len as u32)
        };
        (u32::from(ip) & mask) == (u32::from(self.dest) & mask)
    }
}

/// The routing table.
#[derive(Clone, Debug, Default)]
pub struct RouteTable {
    routes: Vec<Route>,
}

impl RouteTable {
    /// An empty table.
    pub fn new() -> RouteTable {
        RouteTable::default()
    }

    /// Install a route.
    pub fn add(&mut self, dest: Ipv4Addr, prefix_len: u8, iface: IfaceId) {
        assert!(prefix_len <= 32);
        self.routes.push(Route {
            dest,
            prefix_len,
            iface,
        });
        // Keep longest prefixes first so lookup is a linear scan.
        self.routes.sort_by_key(|r| std::cmp::Reverse(r.prefix_len));
    }

    /// Longest-prefix match.
    pub fn lookup(&self, ip: Ipv4Addr) -> Option<IfaceId> {
        self.routes.iter().find(|r| r.matches(ip)).map(|r| r.iface)
    }

    /// Remove every route (used by tests that re-point a live connection
    /// at a different interface — the §4.1 "stack switch" scenario).
    pub fn clear(&mut self) {
        self.routes.clear();
    }

    /// Number of routes.
    pub fn len(&self) -> usize {
        self.routes.len()
    }

    /// True when no routes are installed.
    pub fn is_empty(&self) -> bool {
        self.routes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn longest_prefix_wins() {
        let mut t = RouteTable::new();
        t.add(Ipv4Addr::new(0, 0, 0, 0), 0, IfaceId(0)); // default
        t.add(Ipv4Addr::new(10, 0, 0, 0), 8, IfaceId(1));
        t.add(Ipv4Addr::new(10, 1, 0, 0), 16, IfaceId(2));
        assert_eq!(t.lookup(Ipv4Addr::new(10, 1, 2, 3)), Some(IfaceId(2)));
        assert_eq!(t.lookup(Ipv4Addr::new(10, 2, 2, 3)), Some(IfaceId(1)));
        assert_eq!(t.lookup(Ipv4Addr::new(192, 168, 0, 1)), Some(IfaceId(0)));
    }

    #[test]
    fn host_route() {
        let mut t = RouteTable::new();
        t.add(Ipv4Addr::new(10, 0, 0, 0), 8, IfaceId(1));
        t.add(Ipv4Addr::new(10, 0, 0, 7), 32, IfaceId(3));
        assert_eq!(t.lookup(Ipv4Addr::new(10, 0, 0, 7)), Some(IfaceId(3)));
        assert_eq!(t.lookup(Ipv4Addr::new(10, 0, 0, 8)), Some(IfaceId(1)));
    }

    #[test]
    fn no_route() {
        let mut t = RouteTable::new();
        t.add(Ipv4Addr::new(10, 0, 0, 0), 24, IfaceId(1));
        assert_eq!(t.lookup(Ipv4Addr::new(11, 0, 0, 1)), None);
        assert!(!t.is_empty());
        assert_eq!(t.len(), 1);
    }
}
