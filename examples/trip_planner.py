"""Trip planner: the paper's motivating scenario on the city datasets.

A smartphone user at Fisherman's Wharf wants a hotel, a restaurant and a
theater that are (i) well rated, (ii) near them, and (iii) near each
other.  The data comes from three simulated location services (paged,
latency-metered) serving the San Francisco POI snapshot — the offline
stand-in for the paper's Yahoo! Local crawls.

The example contrasts HRJN* (CBPA) with the paper's TBPA: same answers,
fewer service calls — which is the entire point when every page fetch is
a 50 ms web-service round trip.

Run:  python examples/trip_planner.py [CITY]      (CITY in SF NY BO DA HO)
"""

import sys

from repro import AccessKind, EuclideanLogScoring, cbpa, tbpa
from repro.data import CITIES, city_problem
from repro.service import LatencyModel, make_service_streams

city = (sys.argv[1] if len(sys.argv) > 1 else "SF").upper()
relations, query = city_problem(city)
layout = CITIES[city]
print(f"Planning an evening in {layout.name}, starting near {layout.landmark}.\n")

# Ratings matter a bit less than walking distance here: weight the
# proximity terms up, exactly the tunability eq. (2) provides.
scoring = EuclideanLogScoring(w_s=1.0, w_q=0.5, w_mu=0.5)

def run_against_services(factory):
    """Run one algorithm with each relation behind a paged service:
    10 results per call, ~50 ms simulated latency per call."""
    streams_box = []

    def service_streams():
        streams_box[:] = make_service_streams(
            relations,
            kind=AccessKind.DISTANCE,
            query=query,
            page_size=10,
            latency=LatencyModel(base=0.05, jitter=0.02),
        )
        return list(streams_box)

    engine = factory(relations, scoring, query, k=5, kind=AccessKind.DISTANCE)
    engine.stream_factory = service_streams
    return engine.run(), streams_box


for name, factory in [("CBPA (HRJN*)", cbpa), ("TBPA (this paper)", tbpa)]:
    result, streams = run_against_services(factory)

    endpoints = [c.source for s in streams for c in s.cursors]
    calls = sum(ep.pages for ep in endpoints)
    latency = sum(ep.simulated_seconds for ep in endpoints)
    print(f"--- {name} ---")
    print(f"tuples fetched: {result.depths}  (sumDepths={result.sum_depths})")
    print(f"service calls:  {calls}  (~{latency:.2f}s simulated network time)")
    best = result.combinations[0]
    print("best evening plan:")
    for tup in best.tuples:
        where = f"({tup.vector[0]:+.1f} km E, {tup.vector[1]:+.1f} km N)"
        print(
            f"  {tup.relation:<12} {tup.attrs.get('name', '?'):<18} "
            f"rating {tup.score:.2f}  {where}"
        )
    print(f"  aggregate score S = {best.score:.2f}\n")
