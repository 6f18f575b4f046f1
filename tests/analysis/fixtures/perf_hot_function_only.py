"""Fixture: a hot function in a module that is not hot (PERF002 only).

No hot-module marker here: the function-level marker (like a
``HOT_FUNCTIONS`` manifest entry for a module outside the hot prefixes)
puts one frame under the loop rules without sweeping the module's classes
for ``__slots__`` (PERF001).
"""


class OpenRecord:  # dict-backed, and not flagged: the module is not hot
    def __init__(self, items):
        self.items = items

    def total(self):  # repro: hot
        out = 0
        for item in self.items:
            pair = [item, item]  # EXPECT[PERF002]
            out += len(pair)
        return out

    def cold_total(self):
        out = 0
        for item in self.items:
            out += len([item, item])
        return out
