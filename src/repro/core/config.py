"""Well-known addresses of the HISQ fabric.

A core's timing parameters come from
:class:`~repro.sim.config.SimulationConfig`."""

#: Pseudo-address of the on-board acquisition unit: measurement results
#: appear to the readout board's message unit as messages from this source.
ACQ_ADDRESS = 0xFFE

#: Pseudo-address of the lock-step baseline's central controller.
CENTRAL_ADDRESS = 0xFFD

#: recv from this source matches a message from any sender.
ANY_SOURCE = 0xFFF
