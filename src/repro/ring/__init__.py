"""4 Mbit IBM Token Ring model.

The ring is the paper's transport substrate: 70 stations, token-passing
access with the 802.5 priority/reservation mechanism (which CTMSP uses to
ride above all other traffic), MAC-frame housekeeping traffic, and the one
failure mode the paper could not engineer away -- the Active Monitor's Ring
Purge after a station inserts, which can lose the frame in flight.

The token is modeled *lazily*: its position advances analytically while the
ring is idle, and simulation events are spent only on captures, releases,
deliveries and purges.  This keeps a 70-station ring cheap to simulate while
preserving access-delay and priority semantics.
"""
