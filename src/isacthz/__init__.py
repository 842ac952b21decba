"""Analytical stack and Monte-Carlo oracle for sensing-assisted THz coverage."""
