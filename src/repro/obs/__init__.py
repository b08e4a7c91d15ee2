"""Operational telemetry: metrics, tracing, health, alerting, incidents.

See :mod:`repro.obs.runtime` for the activation model,
:mod:`repro.obs.health` for the monitoring layer on top of it, and
``docs/OBSERVABILITY.md`` for the tour.
"""
