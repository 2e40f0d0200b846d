"""The Byzantine-Witness algorithm (Algorithm 1) — the paper's contribution.

Each node runs a sequence of asynchronous rounds.  Inside round ``r`` a node

1. **RedundantFloods** its state value along every redundant path
   (Algorithm 4);
2. runs one *parallel thread* per candidate fault set ``F_v`` that waits for
   its **Maximal-Consistency** condition — the received values, after
   excluding paths through ``F_v``, are consistent and cover every redundant
   path of ``G_{V\\F_v}`` ending at the node (Algorithm 1 line 10);
3. when a thread fires it **FIFO-floods** a ``COMPLETE(F_v)`` announcement
   carrying the consistent value map (line 11);
4. the thread then waits for the **FIFO-Receive-All** condition — identical
   ``COMPLETE(F_v)`` announcements from every node of ``reach_v(F_v)`` over
   every simple path inside the reach set (line 12);
5. **Verify** additionally demands the **Completeness** condition
   (Algorithm 2) for every announcement received through the reach set; once
   it holds the node runs **Filter-and-Average** (Algorithm 3) exactly once
   for the round, obtains its next state value and moves on (lines 14-19).

After ``⌊log2(K/ε)⌋ + 1`` rounds the node outputs its state value
(Section 4.6).

The implementation is event-driven on top of
:class:`repro.network.simulator.Simulator`: every handler reacts to a single
message delivery, which mirrors the paper's "upon receipt" pseudo-code.  The
parallel threads are represented by per-fault-set trackers inside a
per-round state object rather than actual threads; the shared-variable
``nextround`` discipline of lines 15-19 becomes a plain per-round boolean
because handlers run to completion one at a time.

The COMPLETE phase (lines 12-14) is event-driven rather than re-polled.
Both of its conditions only ever move one way, which is what makes it sound
to skip a re-check whose inputs did not change:

* **FIFO-Receive-All** waits, per thread, on one ``(origin, path)`` entry
  at a time — a stored announcement and a FIFO counter prefix for that
  key.  Only a COMPLETE delivery on ``(origin, path)`` (of any round: the
  counter prefix is shared across rounds) can store that announcement or
  advance that prefix, so a blocked thread is parked under its key and
  re-scanned only when a delivery on the key wakes it.  A thread whose
  copies disagree in content is dead for good (stored announcements never
  change) and is never parked.
* **Verify** fails only when some eligible announcement fails
  Completeness.  The message set is append-only and Completeness is a pure
  function of it; reach-set membership of a path never changes and FIFO
  prefixes only grow, so that announcement stays eligible and keeps
  failing until a new value message is stored.  A thread therefore
  remembers the message-set size of its last failed Verify and fails in
  O(1) while the size is unchanged.  Completeness does not read an
  announcement's origin, so its pass memo is keyed on ``(fault set,
  values)``.

``tests/test_bw_event_driven.py`` checks this against a literal
transcription that re-polls every condition on every evaluation.

Malformed payloads from a Byzantine sender are dropped before any state is
touched: a round that is not an ``int`` in ``[0, total_rounds)``, and a
COMPLETE whose counter is not an ``int``, whose value map is not a tuple of
pairs or whose path, fault set or origin cannot be hashed.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Hashable, List, Mapping, Optional, Set, Tuple

from repro.algorithms.base import ConsensusConfig
from repro.algorithms.completeness import completeness
from repro.algorithms.filter_average import FilterResult, filter_and_average
from repro.algorithms.messages import CompleteMessage, ValueMessage, sort_value_pairs
from repro.algorithms.messagesets import MessageSet
from repro.algorithms.topology import PATH_MEMO_LIMIT, TopologyKnowledge
from repro.conditions.reach_conditions import check_three_reach
from repro.exceptions import InfeasibleTopologyError, ProtocolError
from repro.graphs.digraph import DiGraph
from repro.graphs.paths import is_redundant, is_simple
from repro.network.node import Process

NodeId = Hashable
Path = Tuple[NodeId, ...]
FaultSet = FrozenSet[NodeId]


class _ThreadTracker:
    """Incremental state of one parallel thread (one candidate fault set).

    Per-message work is reduced to *fullness counting*: the topology's
    reverse index names the threads each required path belongs to, so one
    counter increment per listed thread replaces a per-thread set-membership
    test.  Consistency of ``M|_{F_v}`` (Definition 8) is evaluated lazily —
    once, when the thread becomes full — from the message set's
    origin/value/mask index; it is sound to defer because a restriction that
    is inconsistent can never become consistent again (stored messages are
    immutable), so a full-but-inconsistent thread is permanently dead either
    way.

    The COMPLETE phase is woken, not polled.  FIFO-Receive-All walks a
    flattened wait list once, resuming at ``scan_pos``: every entry's
    satisfaction is monotone (announcements are immutable once stored,
    counter prefixes only grow), and the entry at ``scan_pos`` can only
    change through a COMPLETE delivery on its ``(origin, path)``, under
    which the blocked thread is parked.  Verify remembers in
    ``verify_failed_at`` the message-set size at which it last failed: the
    failing announcement stays eligible and its Completeness verdict is a
    pure function of the append-only message set, so Verify cannot pass
    before a new value message is stored.
    """

    __slots__ = ("fault_set", "fault_mask", "required_count",
                 "received_required", "complete_sent", "ready_queued",
                 "fifo_received_all", "fifo_entries", "scan_pos", "reach_mask",
                 "verify_failed_at")

    def __init__(self, fault_set: FaultSet, fault_mask: int, required_count: int) -> None:
        self.fault_set = fault_set
        self.fault_mask = fault_mask
        self.required_count = required_count
        self.received_required = 0
        self.complete_sent = False
        #: already enqueued on the round's ready list (avoids duplicates).
        self.ready_queued = False
        self.fifo_received_all = False
        #: FIFO-Receive-All wait list ``(link, key, first_key)`` (built on
        #: first scan) and the position of its first unsatisfied entry.
        self.fifo_entries: Optional[List[Tuple[Tuple[NodeId, Path], Tuple, Optional[Tuple]]]] = None
        self.scan_pos = 0
        self.reach_mask: Optional[int] = None
        #: message-set size at which Verify last failed (-1: never).
        self.verify_failed_at = -1


class _RoundState:
    """Mutable per-round state of a BW node."""

    __slots__ = ("round_index", "message_set", "relayed_value_paths", "trackers",
                 "ready_trackers", "verify_trackers", "complete_messages",
                 "relayed_complete_keys", "completeness_passed", "advanced",
                 "filter_result", "started")

    def __init__(self, round_index: int, message_set: MessageSet) -> None:
        self.round_index = round_index
        self.message_set = message_set
        self.relayed_value_paths: Set[Path] = set()
        self.trackers: Dict[FaultSet, _ThreadTracker] = {}
        #: trackers whose Maximal-Consistency condition just became true
        #: (filled by ``observe``; drained by ``_maybe_flood_completes`` so
        #: the per-message re-evaluation never scans quiescent trackers).
        self.ready_trackers: List[_ThreadTracker] = []
        #: threads past FIFO-Receive-All, in ``trackers`` order (the order
        #: Verify tries them in).
        self.verify_trackers: List[_ThreadTracker] = []
        #: ``(origin, fault_set, path)`` → first CompleteMessage received that way.
        self.complete_messages: Dict[Tuple[NodeId, FaultSet, Path], CompleteMessage] = {}
        self.relayed_complete_keys: Set[Tuple[NodeId, int, Path]] = set()
        #: ``(fault_set, values)`` of announcements that passed Completeness
        #: (monotone: more stored paths only make a cover harder to find).
        self.completeness_passed: Set[Tuple[FaultSet, Tuple]] = set()
        self.advanced = False
        self.filter_result: Optional[FilterResult] = None
        self.started = False


class BWProcess(Process):
    """One node of the Byzantine-Witness protocol.

    Parameters
    ----------
    node_id:
        The node's identity (must match a graph node).
    graph:
        The communication graph (used for topology knowledge; the actual
        sending is constrained by the simulator anyway).
    initial_value:
        The node's real-valued input ``x_v[0]``.
    config:
        Protocol parameters (``f``, ``ε``, input range, flooding policy).
    topology:
        Optional shared :class:`TopologyKnowledge`; computed on demand when
        omitted (sharing one instance across nodes avoids redundant
        precomputation).
    """

    def __init__(
        self,
        node_id: NodeId,
        graph: DiGraph,
        initial_value: float,
        config: ConsensusConfig,
        topology: Optional[TopologyKnowledge] = None,
    ) -> None:
        super().__init__(node_id)
        self.graph = graph
        self.config = config
        self.initial_value = config.validate_input(initial_value)
        self.topology = topology or TopologyKnowledge(graph, config.f, config.path_policy)
        if config.strict_topology_check and not check_three_reach(graph, config.f).holds:
            raise InfeasibleTopologyError(
                f"graph {graph.name or '<unnamed>'} does not satisfy 3-reach for f={config.f}"
            )

        self.current_round = 0
        self.state_value = self.initial_value
        self.total_rounds = config.rounds_needed()
        #: state value at the beginning of each round (x_v[0], x_v[1], ...).
        self.value_history: List[float] = [self.initial_value]
        self._rounds: Dict[int, _RoundState] = {}
        self._fifo_counter = 0
        #: (origin, path ending here) → longest contiguous FIFO counter
        #: prefix received that way (the FIFO-Receive check of Appendix F in
        #: O(1) instead of O(counter)), and the counters received beyond it.
        self._fifo_prefix: Dict[Tuple[NodeId, Path], int] = {}
        self._fifo_ahead: Dict[Tuple[NodeId, Path], Set[int]] = {}
        #: COMPLETE propagation path (ending here) → ``(member mask, relay
        #: targets)``, built at first receipt.  Verify's reach-containment
        #: test is one AND against the mask.
        self._complete_paths: Dict[Path, Tuple[int, List[NodeId]]] = {}
        #: FIFO-Receive-All wake index of the current round: ``(origin,
        #: path)`` → threads blocked on that entry, and the threads to scan at
        #: the next evaluation (just fired, or woken by a delivery).
        self._fifo_waiters: Dict[Tuple[NodeId, Path], List[_ThreadTracker]] = {}
        self._fifo_woken: List[_ThreadTracker] = []
        #: experiment-wide path codec (graph nodes share the engine's bits).
        self._codec = self.topology.path_codec
        #: sorted ``(neighbour, neighbour-bit)`` pairs, built on first send.
        self._out_info: Optional[List[Tuple[NodeId, int]]] = None
        #: raw context send (bound at first use).  Flooding loops only ever
        #: target out-neighbours, so the per-send edge check of
        #: ``Context.send`` is redundant on this path; ``messages_sent`` is
        #: bulk-updated per loop instead of per call.
        self._raw_send: Optional[Any] = None
        #: reverse fullness index of this node (bound on first round state).
        self._required_index: Optional[Dict[int, Tuple[FaultSet, ...]]] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def on_start(self) -> None:
        """Begin round 0, or decide immediately when no rounds are needed."""
        if self.total_rounds == 0:
            self.decide(self.state_value)
            return
        self._start_round(0)

    def on_message(self, sender: NodeId, payload: Any) -> None:
        """Dispatch on the two protocol message families."""
        # Exact-class checks first: every honest payload is one of the two
        # concrete types; isinstance only runs for exotic (subclassed)
        # payloads a Byzantine sender might construct.
        cls = payload.__class__
        if cls is ValueMessage:
            self._handle_value(sender, payload)
        elif cls is CompleteMessage:
            self._handle_complete(sender, payload)
        elif isinstance(payload, ValueMessage):
            self._handle_value(sender, payload)
        elif isinstance(payload, CompleteMessage):
            self._handle_complete(sender, payload)
        # Unknown payloads (e.g. garbage injected by a Byzantine sender) are ignored.

    # ------------------------------------------------------------------
    # round management
    # ------------------------------------------------------------------
    def _out_neighbors(self) -> List[Tuple[NodeId, int]]:
        """Sorted ``(neighbour, bit)`` pairs (cached; repr-sort once, not per send)."""
        info = self._out_info
        if info is None:
            context = self.require_context()
            codec = self._codec
            info = [
                (neighbor, 1 << codec.bit(neighbor))
                for neighbor in sorted(context.out_neighbors, key=repr)
            ]
            self._out_info = info
            self._raw_send = context._send
        return info

    def _flood(self, targets: List[NodeId], payload: Any) -> None:
        """Send ``payload`` to every target neighbour (hot flooding loop)."""
        send = self._raw_send
        if send is None:
            self._out_neighbors()
            send = self._raw_send
        node_id = self.node_id
        for neighbor in targets:
            send(node_id, neighbor, payload)
        self.messages_sent += len(targets)

    def _round_state(self, round_index: int) -> _RoundState:
        state = self._rounds.get(round_index)
        if state is None:
            state = _RoundState(round_index, MessageSet(codec=self._codec))
            topology = self.topology
            engine = topology.engine
            for fault_set in topology.fault_candidates[self.node_id]:
                state.trackers[fault_set] = _ThreadTracker(
                    fault_set,
                    engine.mask_of(fault_set),
                    len(topology.required_path_ids(self.node_id, fault_set)),
                )
            if self._required_index is None:
                self._required_index = topology.required_index(self.node_id)
            self._rounds[round_index] = state
        return state

    def _start_round(self, round_index: int) -> None:
        state = self._round_state(round_index)
        state.started = True
        # The node's own value enters its message history on the trivial path ⟨v⟩ ...
        trivial = (self.node_id,)
        record = self._path_record(trivial)
        self._record_value(state, self.state_value, trivial, record[1], record[2])
        # ... and is RedundantFlooded to every outgoing neighbour (Algorithm 4, code for s).
        message = ValueMessage(round=round_index, value=self.state_value, path=trivial)
        self._flood([neighbor for neighbor, _ in self._out_neighbors()], message)
        self._evaluate_state(state)

    def _advance(self, round_index: int, filter_result: FilterResult) -> None:
        state = self._round_state(round_index)
        state.advanced = True
        state.filter_result = filter_result
        # A finished round never evaluates FIFO-Receive-All again.
        self._fifo_waiters = {}
        self._fifo_woken = []
        self.state_value = filter_result.new_value
        self.value_history.append(self.state_value)
        self.current_round = round_index + 1
        if self.current_round >= self.total_rounds:
            self.decide(self.state_value)
            return
        self._start_round(self.current_round)

    # ------------------------------------------------------------------
    # value messages (RedundantFlood)
    # ------------------------------------------------------------------
    def _path_policy_allows(self, path: Path) -> bool:
        if self.config.path_policy == "simple":
            return is_simple(path)
        return is_redundant(path)

    def _forward_targets_uncached(self, extended: Path) -> List[NodeId]:
        """Neighbours ``u`` (sorted) for which ``extended || u`` satisfies the
        flooding policy — the per-neighbour test of Algorithm 4's relay rule.
        Memoised per path in the shared path record (:meth:`_path_record`).

        ``extended`` already satisfies the policy (checked at receipt), which
        lets the appended-hop test run on member masks instead of re-scanning
        the whole path per neighbour:

        * *simple* policy: ``extended || u`` is simple iff ``u`` is not a
          member of ``extended`` — one AND against the member mask;
        * *redundant* policy: with ``a`` the longest simple prefix length and
          ``b`` the longest simple suffix start of ``extended``, appending
          ``u`` keeps redundancy iff the path was fully simple (any neighbour
          works: ``⟨…, ter, u⟩`` is a simple suffix because ``u ≠ ter``), or
          ``u`` is outside the suffix (the suffix start is unchanged), or the
          last occurrence ``k`` of ``u`` still leaves a split: ``k + 1 < a``.
        """
        out = self._out_neighbors()
        codec = self._codec
        if self.config.path_policy == "simple":
            member = codec.member_mask(extended)
            return [neighbor for neighbor, bit in out if not member & bit]
        length = len(extended)
        seen: Set[NodeId] = set()
        prefix_length = 0
        for node in extended:
            if node in seen:
                break
            seen.add(node)
            prefix_length += 1
        if prefix_length == length:
            return [neighbor for neighbor, _ in out]
        suffix_mask = 0
        suffix_start = length
        seen = set()
        for index in range(length - 1, -1, -1):
            node = extended[index]
            if node in seen:
                break
            seen.add(node)
            suffix_mask |= 1 << codec.bit(node)
            suffix_start = index
        targets = []
        for neighbor, bit in out:
            if not suffix_mask & bit:
                # Suffix start is unchanged and the path was already
                # redundant, so the split at ``suffix_start`` survives.
                targets.append(neighbor)
                continue
            last = length - 1
            while extended[last] != neighbor:
                last -= 1
            if last + 1 < prefix_length:
                targets.append(neighbor)
        return targets

    def _path_record(self, path: Path) -> List:
        """``[policy verdict, member mask, path id, relay targets]`` — shared
        across processes, rounds and (via the sweep worker cache) cells.

        The relay-target slot is filled lazily on first relay (only the
        path's terminal node ever computes it)."""
        info = self.topology.path_info
        record = info.get(path)
        if record is None:
            record = [
                self._path_policy_allows(path),
                self._codec.member_mask(path),
                self.topology.path_id(path),
                None,
            ]
            if len(info) < PATH_MEMO_LIMIT:
                info[path] = record
        return record

    def _handle_value(self, sender: NodeId, message: ValueMessage) -> None:
        round_index = message.round
        if round_index.__class__ is not int or not 0 <= round_index < self.total_rounds:
            # A forged round index must not allocate round state (one
            # tracker per fault candidate) or be relayed.
            return
        path = tuple(message.path)
        if not path or path[-1] != sender:
            return  # propagation-path forgery that misreports the link sender
        extended = path + (self.node_id,)
        record = self._path_record(extended)
        if not record[0]:
            return
        path_mask = record[1]
        path_id = record[2]
        state = self._rounds.get(round_index)
        if state is None:
            state = self._round_state(round_index)
        is_new_path = state.message_set.add_encoded(extended, message.value, path_mask)
        if is_new_path:
            self._note_required(state, path_id)
        # Relay rule of Algorithm 4: only the first message per propagation path
        # is forwarded, and only towards neighbours keeping the path redundant.
        relayed = state.relayed_value_paths
        before = len(relayed)
        relayed.add(path)
        if len(relayed) != before:
            targets = record[3]
            if targets is None:
                targets = self._forward_targets_uncached(extended)
                record[3] = targets
            forwarded = ValueMessage(round=round_index, value=message.value, path=extended)
            self._flood(targets, forwarded)
        if is_new_path:
            # Maximal-Consistency keeps being monitored even for rounds this
            # node already finished: other nodes may still be waiting for this
            # node's COMPLETE announcements (Theorem 9 relies on every
            # nonfaulty node eventually flooding COMPLETE(F) for the actual
            # fault set, in every round).  For the current round the full
            # evaluation loop runs (its first step is exactly that flood).
            # A value delivery can only progress the round when a thread
            # just became full (ready_trackers) or a thread is already past
            # FIFO-Receive-All and waiting on Verify, whose Completeness
            # check reads the message set (verify_trackers) — every other
            # section's inputs are untouched by value messages, so the
            # evaluation loop is skipped outright.
            if round_index == self.current_round:
                if state.ready_trackers or state.verify_trackers:
                    self._evaluate_state(state)
            elif state.ready_trackers:
                self._maybe_flood_completes(state)

    def _note_required(self, state: _RoundState, path_id: int) -> None:
        """Fullness update for one newly stored path (Definition 9).

        The reverse index lists exactly the threads whose required-path set
        contains this path; a thread transitioning to *full* is queued for
        the Maximal-Consistency drain (consistency is evaluated there).
        Required paths arrive at most once (the message set deduplicates),
        so plain counters are exact.
        """
        required_by = self._required_index.get(path_id)
        if not required_by:
            return
        trackers = state.trackers
        ready = state.ready_trackers
        for fault_set in required_by:
            tracker = trackers[fault_set]
            tracker.received_required += 1
            if (
                tracker.received_required == tracker.required_count
                and not tracker.ready_queued
                and not tracker.complete_sent
            ):
                tracker.ready_queued = True
                ready.append(tracker)

    def _record_value(
        self, state: _RoundState, value: float, path: Path, path_mask: int, path_id: int
    ) -> None:
        if state.message_set.add_encoded(path, value, path_mask):
            self._note_required(state, path_id)

    # ------------------------------------------------------------------
    # COMPLETE messages (FIFO flood)
    # ------------------------------------------------------------------
    def _next_fifo_counter(self) -> int:
        self._fifo_counter += 1
        return self._fifo_counter

    def _handle_complete(self, sender: NodeId, message: CompleteMessage) -> None:
        round_index = message.round
        counter = message.fifo_counter
        values = message.values
        if (
            round_index.__class__ is not int
            or not 0 <= round_index < self.total_rounds
            or counter.__class__ is not int
            or values.__class__ is not tuple
        ):
            return  # forged round (see _handle_value) or malformed fields
        origin = message.origin
        announced = message.fault_set
        try:
            path = tuple(message.path)
            if announced.__class__ is not frozenset:
                announced = frozenset(announced)
            # Verify hashes the value map and reads it as a dict; the stores
            # below hash the origin and the path.
            hash((origin, path, values))
            dict(values)
        except (TypeError, ValueError):
            return  # malformed payload from a Byzantine sender: drop it
        if not path or path[-1] != sender:
            return
        node_id = self.node_id
        if node_id in path:
            return  # FIFO flooding uses simple paths only
        extended = path + (node_id,)
        state = self._rounds.get(round_index)
        if state is None:
            state = self._round_state(round_index)
        hop = self._complete_paths.get(extended)
        if hop is None:
            extended_mask = self._codec.member_mask(extended)
            hop = (
                extended_mask,
                [neighbor for neighbor, bit in self._out_neighbors() if not extended_mask & bit],
            )
            self._complete_paths[extended] = hop

        # Advance the link's contiguous counter prefix.  A delivery on
        # ``(origin, extended)`` is the only event that can unblock the
        # FIFO-Receive-All threads parked there, so it wakes them.
        link = (origin, extended)
        prefix = self._fifo_prefix.get(link, 0)
        if counter == prefix + 1:
            prefix += 1
            ahead = self._fifo_ahead.get(link)
            if ahead:
                while prefix + 1 in ahead:
                    ahead.discard(prefix + 1)
                    prefix += 1
            self._fifo_prefix[link] = prefix
        elif counter > prefix:
            self._fifo_ahead.setdefault(link, set()).add(counter)
        waiters = self._fifo_waiters.pop(link, None)
        if waiters is not None:
            self._fifo_woken.extend(waiters)

        key = (origin, announced, extended)
        stored = None
        if key not in state.complete_messages:
            stored = CompleteMessage(
                round=round_index,
                origin=origin,
                fault_set=announced,
                values=values,
                fifo_counter=counter,
                path=extended,
            )
            state.complete_messages[key] = stored

        relay_key = (origin, counter, path)
        relayed = state.relayed_complete_keys
        if relay_key not in relayed:
            relayed.add(relay_key)
            # The relayed copy keeps the fault set as received; when that
            # already is a frozenset it equals the stored record.
            if stored is None or announced is not message.fault_set:
                stored = CompleteMessage(
                    round=round_index,
                    origin=origin,
                    fault_set=message.fault_set,
                    values=values,
                    fifo_counter=counter,
                    path=extended,
                )
            self._flood(hop[1], stored)

        # Only a woken thread can progress: COMPLETE deliveries leave the
        # message set alone, so every thread already past FIFO-Receive-All
        # still fails Verify at the size it last failed at (value
        # deliveries re-run Verify whenever such a thread exists).
        if round_index == self.current_round and self._fifo_woken:
            self._evaluate_state(state)

    def _fifo_received(self, origin: NodeId, path: Path, counter: int) -> bool:
        """FIFO-Receive check of Appendix F: all earlier counters from the same
        origin arrived on the same propagation path.

        O(1): counters ``1..k`` were all received iff the contiguous prefix
        maintained by :meth:`_handle_complete` reaches ``k``.
        """
        if origin == self.node_id:
            return True
        return self._fifo_prefix.get((origin, path), 0) >= counter - 1

    def _fifo_flood_complete(self, round_index: int, fault_set: FaultSet, values: Mapping[NodeId, float]) -> None:
        counter = self._next_fifo_counter()
        payload_values = sort_value_pairs(values.items())
        message = CompleteMessage(
            round=round_index,
            origin=self.node_id,
            fault_set=fault_set,
            values=payload_values,
            fifo_counter=counter,
            path=(self.node_id,),
        )
        state = self._round_state(round_index)
        # The node trivially "receives" its own announcement on the path ⟨v⟩.
        own_key = (self.node_id, fault_set, (self.node_id,))
        state.complete_messages[own_key] = message
        self._complete_paths.setdefault(
            (self.node_id,), (1 << self._codec.bit(self.node_id), [])
        )
        self._flood([neighbor for neighbor, _ in self._out_neighbors()], message)

    # ------------------------------------------------------------------
    # condition evaluation (lines 10-19 of Algorithm 1)
    # ------------------------------------------------------------------
    def _maybe_flood_completes(self, state: _RoundState) -> bool:
        """Maximal-Consistency (line 10) → FIFO-flood COMPLETE (line 11).

        Evaluated for *any* round the node has started (including rounds it
        already finished), because other nodes' FIFO-Receive-All conditions
        wait for this node's announcements.  Only trackers whose condition
        just transitioned (queued by ``observe``) are examined.
        """
        if not state.started or not state.ready_trackers:
            return False
        progressed = False
        while state.ready_trackers:
            tracker = state.ready_trackers.pop(0)
            tracker.ready_queued = False
            if tracker.complete_sent or tracker.received_required != tracker.required_count:
                continue
            # Lazy Definition 8 check: derive the value map of ``M|_{F_v}``
            # from the message set's origin/value/mask index.  ``None`` means
            # the restriction is inconsistent — permanently, since stored
            # messages are immutable — so the thread never fires.
            value_map = self._restricted_value_map(state.message_set, tracker.fault_mask)
            if value_map is None:
                continue
            tracker.complete_sent = True
            if not state.advanced:
                # Scanned once at the next FIFO-Receive-All evaluation;
                # finished rounds never evaluate it again.
                self._fifo_woken.append(tracker)
            self._fifo_flood_complete(state.round_index, tracker.fault_set, value_map)
            progressed = True
        return progressed

    def _restricted_value_map(
        self, message_set: MessageSet, fault_mask: int
    ) -> Optional[Mapping[NodeId, float]]:
        """Value map of ``M|_F`` (Definition 7) — or ``None`` when inconsistent.

        For every origin, scan its values for one with at least one
        propagation path avoiding ``F``; two such values violate Definition 8.
        """
        result: Dict[NodeId, float] = {}
        for origin, by_value in message_set.value_masks_by_origin().items():
            found: Optional[float] = None
            for value, masks in by_value.items():
                for mask in masks:
                    if not mask & fault_mask:
                        break
                else:
                    continue
                if found is None:
                    found = value
                else:
                    return None
            if found is not None:
                result[origin] = found
        return result

    def _evaluate_state(self, state: _RoundState) -> None:
        if state.advanced or not state.started:
            return

        progressed = True
        while progressed and not state.advanced:
            progressed = False

            # Maximal-Consistency (line 10) → FIFO-flood COMPLETE (line 11).
            if self._maybe_flood_completes(state):
                progressed = True

            # FIFO-Receive-All (line 12) for the threads fired or woken since
            # the last evaluation; every other thread's blocking entry is
            # unchanged.
            woken = self._fifo_woken
            if woken:
                self._fifo_woken = []
                passed = False
                for tracker in woken:
                    if self._fifo_receive_all_satisfied(state, tracker):
                        tracker.fifo_received_all = True
                        passed = True
                if passed:
                    state.verify_trackers = [
                        tracker for tracker in state.trackers.values()
                        if tracker.fifo_received_all
                    ]
                    progressed = True

            # Verify (line 14 / function at line 20) → Filter-and-Average.
            for tracker in state.verify_trackers:
                if self._verify(state, tracker):
                    result = filter_and_average(
                        state.message_set, self.config.f, self.node_id
                    )
                    self._advance(state.round_index, result)
                    progressed = True
                    break

    def _fifo_receive_all_satisfied(self, state: _RoundState, tracker: _ThreadTracker) -> bool:
        """Line 12: identical, FIFO-received ``COMPLETE(F_v)`` announcements from
        every node of ``reach_v(F_v)`` over every simple path inside the reach set.

        Resumes at the thread's first unsatisfied entry.  A thread blocked on
        a missing or not-yet-FIFO-received announcement is parked under the
        entry's ``(origin, path)`` until a delivery there wakes it.
        """
        entries = tracker.fifo_entries
        if entries is None:
            # Flatten the wait list once per thread: ``(link, key,
            # first_key)`` with ``link = (origin, path)`` keying the FIFO
            # prefix and the wake index, ``key`` indexing
            # ``complete_messages`` and ``first_key`` the origin's first
            # path (content reference).  The node's own announcement is
            # always present: a thread is only scanned after it fired.
            fault_set = tracker.fault_set
            entries = []
            paths_by_origin = self.topology.simple_paths_within_reach(self.node_id, fault_set)
            for origin, paths in paths_by_origin.items():
                if origin == self.node_id:
                    continue
                first_key = None
                for path in paths:
                    key = (origin, fault_set, path)
                    entries.append(((origin, path), key, first_key))
                    if first_key is None:
                        first_key = key
            tracker.fifo_entries = entries

        complete_messages = state.complete_messages
        fifo_prefix = self._fifo_prefix
        pos = tracker.scan_pos
        total = len(entries)
        while pos < total:
            link, key, first_key = entries[pos]
            message = complete_messages.get(key)
            if message is None or fifo_prefix.get(link, 0) < message.fifo_counter - 1:
                tracker.scan_pos = pos
                waiters = self._fifo_waiters.get(link)
                if waiters is None:
                    self._fifo_waiters[link] = [tracker]
                else:
                    waiters.append(tracker)
                return False
            if (
                first_key is not None
                and message.content_key() != complete_messages[first_key].content_key()
            ):
                tracker.scan_pos = pos
                return False  # copies disagree: blocked for good, never parked
            pos += 1
        tracker.scan_pos = pos
        return True

    def _verify(self, state: _RoundState, tracker: _ThreadTracker) -> bool:
        """Function Verify (lines 20-26): Completeness for every announcement
        FIFO-received through a simple path inside ``reach_v(F_v)``.

        Fails in O(1) while the message set has the size of the thread's
        last failure (see :class:`_ThreadTracker`).  Path-containment tests
        run on the shared bitmask engine: the reach set is a memoised mask
        (one cache per experiment run, shared across rounds and fault-set
        pairs, re-bound per thread) and each path-in-reach check is a single
        word operation instead of a set comparison.
        """
        message_set = state.message_set
        size = len(message_set)
        if tracker.verify_failed_at == size:
            return False
        reach_mask = tracker.reach_mask
        if reach_mask is None:
            reach_mask = self.topology.reach_mask(self.node_id, tracker.fault_set)
            tracker.reach_mask = reach_mask
        outside_reach = ~reach_mask
        paths = self._complete_paths
        passed = state.completeness_passed
        for (origin, announced_set, path), message in state.complete_messages.items():
            # Member masks are computed once at receipt; forged hops intern
            # beyond the graph's bits, so they always test as outside reach.
            if paths[path][0] & outside_reach:
                continue
            if not self._fifo_received(origin, path, message.fifo_counter):
                continue
            cache_key = (announced_set, message.values)
            if cache_key in passed:
                continue
            if not completeness(
                message_set,
                message.value_map(),
                announced_set,
                self.topology,
                self.node_id,
            ):
                tracker.verify_failed_at = size
                return False
            passed.add(cache_key)
        return True

    # ------------------------------------------------------------------
    # introspection used by the experiment harness
    # ------------------------------------------------------------------
    @property
    def rounds_completed(self) -> int:
        """Number of value-update rounds completed so far."""
        return len(self.value_history) - 1

    def round_filter_result(self, round_index: int) -> Optional[FilterResult]:
        """The Filter-and-Average outcome of a completed round (or ``None``)."""
        state = self._rounds.get(round_index)
        return None if state is None else state.filter_result

    def __repr__(self) -> str:
        return (
            f"<BWProcess node={self.node_id!r} round={self.current_round}/"
            f"{self.total_rounds} value={self.state_value:.6g} decided={self.decided}>"
        )


def create_bw_processes(
    graph: DiGraph,
    inputs: Mapping[NodeId, float],
    config: ConsensusConfig,
    topology: Optional[TopologyKnowledge] = None,
) -> Dict[NodeId, BWProcess]:
    """Instantiate one :class:`BWProcess` per graph node with shared topology.

    ``inputs`` must provide a value for every node of the graph.
    """
    missing = set(graph.nodes) - set(inputs)
    if missing:
        raise ProtocolError(f"missing inputs for nodes {sorted(map(repr, missing))}")
    shared = topology or TopologyKnowledge(graph, config.f, config.path_policy)
    return {
        node: BWProcess(node, graph, inputs[node], config, topology=shared)
        for node in graph.nodes
    }
