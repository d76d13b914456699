"""Planted CS001 fixture: an unguarded entry chain to a mutation."""


class PlantedFW:
    def mount(self):
        self._replay()

    def _replay(self):
        self.ftl.write_page(0, b"", None)
