"""A thread whose work supply is an injected callable."""

from repro.osched.thread import SimThread


class CallbackThread(SimThread):
    def __init__(self, name, supply):
        super().__init__(name)
        self._supply = supply

    def next_work(self):
        return self._supply()
